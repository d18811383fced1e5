#include "edu/aegis_edu.hpp"

#include "crypto/modes.hpp"
#include "sim/txn_batcher.hpp"

#include <functional>
#include <stdexcept>

namespace buscrypt::edu {

aegis_edu::aegis_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
                     aegis_edu_config cfg)
    : edu(lower), cipher_(&cipher), cfg_(cfg), counter_state_(cfg.seed) {
  // An 8-byte counter block would fold line and nonce together.
  if (cipher.block_size() != crypto::max_block)
    throw std::invalid_argument("aegis_edu: cipher block must be 16 bytes");
  if (cfg_.line_bytes % cipher.block_size() != 0)
    throw std::invalid_argument("aegis_edu: line must be a block multiple");
}

u64 aegis_edu::nonce_for(addr_t line_addr) const noexcept {
  const auto it = nonces_.find(line_addr);
  return it == nonces_.end() ? 0 : it->second;
}

u64 aegis_edu::fresh_nonce(addr_t line_addr) {
  if (cfg_.iv_mode == aegis_iv_mode::counter) return ++nonces_[line_addr];
  counter_state_ = counter_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  nonces_[line_addr] = counter_state_;
  return counter_state_;
}

cycles aegis_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  const std::size_t lb = cfg_.line_bytes;
  if (out.size() != lb || !sim::whole_granules(addr, out.size(), lb)) {
    // Non-line requests take the slow path: fetch covering lines, each
    // through read().
    return read_cover(addr, out, lb, [this, lb](addr_t base, std::span<u8> cover) {
      return per_granule(base, cover, lb, std::bind_front(&aegis_edu::read, this));
    });
  }

  const cycles mem = lower_->read(addr, out);
  // IV = E_K(block address || nonce) — unpredictable, per-line, fresh.
  crypto::cbc_decrypt_at(*cipher_, addr, nonce_for(addr), out);

  const std::size_t nblocks = core.blocks_for(cfg_.line_bytes);
  stats_.cipher_blocks += nblocks + 1;
  // IV generation overlaps the fetch (address & nonce known at request);
  // CBC decryption is block-parallel but the whole line must finish before
  // the processor sees anything (no critical-word-first).
  const cycles crypt = core.time_parallel(nblocks);
  stats_.crypto_cycles += crypt;
  return mem + crypt;
}

void aegis_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  const std::size_t lb = cfg_.line_bytes;
  const std::size_t nblocks = core.blocks_for(lb);
  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    if (txn.data.empty() || !sim::whole_granules(txn.addr, txn.data.size(), lb)) {
      b.detour_via(txn, *this);
      continue;
    }
    // One count per line, matching scalar issue of the same line ops.
    for (std::size_t off = 0; off < txn.data.size(); off += lb) {
      const addr_t a = txn.addr + off;
      std::span<u8> line = txn.data.subspan(off, lb);
      stats_.cipher_blocks += nblocks + 1;
      if (txn.is_write()) {
        ++stats_.writes;
        // Fresh nonce in submission order, exactly as scalar issue.
        const u64 nonce = fresh_nonce(a);
        bytes& ct = b.scratch_copy(line);
        crypto::cbc_encrypt_at(*cipher_, a, nonce, ct);
        const cycles enc = core.time_chained(nblocks) + core.latency;
        stats_.crypto_cycles += enc;
        b.add_pre(enc);
        (void)b.queue(sim::txn_op::write, txn.master, a, ct);
      } else {
        ++stats_.reads;
        // Snapshot the nonce now: a later in-window write must not
        // change the IV this read's ciphertext was produced under.
        const u64 nonce = nonce_for(a);
        const std::size_t li = b.queue(sim::txn_op::read, txn.master, a, line);
        const cycles dec = core.time_parallel(nblocks);
        stats_.crypto_cycles += dec;
        b.add_gated(li, sim::txn_batcher::no_lower, dec, [this, a, nonce, line] {
          crypto::cbc_decrypt_at(*cipher_, a, nonce, line);
        });
      }
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles aegis_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  const std::size_t lb = cfg_.line_bytes;
  if (in.size() != lb || !sim::whole_granules(addr, in.size(), lb)) {
    // Anything but one line: the five-step write at line granularity (its
    // read only for partial lines), each line read and written through
    // read() and write().
    return write_cover(addr, in, lb, std::bind_front(&aegis_edu::read, this),
                       [this, lb](addr_t base, std::span<u8> cover) {
                         return per_granule(base, cover, lb,
                                            std::bind_front(&aegis_edu::write, this));
                       });
  }

  // Fresh nonce per write: random vector or monotonic counter.
  const u64 nonce = fresh_nonce(addr);
  sim::stack_window ct(in);
  crypto::cbc_encrypt_at(*cipher_, addr, nonce, ct.span());

  const std::size_t nblocks = core.blocks_for(lb);
  stats_.cipher_blocks += nblocks + 1;
  // CBC encryption is chained across the line; IV generation precedes it.
  const cycles crypt = core.time_chained(nblocks) + core.latency;
  stats_.crypto_cycles += crypt;
  return crypt + lower_->write(addr, ct.span());
}

} // namespace buscrypt::edu
