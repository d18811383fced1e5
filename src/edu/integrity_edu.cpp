#include "edu/integrity_edu.hpp"

#include "common/bitops.hpp"
#include "crypto/modes.hpp"
#include "sim/txn_batcher.hpp"

#include <array>
#include <functional>
#include <stdexcept>

namespace buscrypt::edu {

integrity_edu::integrity_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                             bytes mac_key, integrity_edu_config cfg)
    : edu(lower), prf_(&prf), cfg_(cfg) {
  // An 8-byte counter block would fold block index and version together.
  if (prf.block_size() != crypto::max_block)
    throw std::invalid_argument("integrity_edu: PRF block must be 16 bytes");
  if (cfg_.level == integrity_level::none) return;
  engine::auth_config a;
  a.mode = engine::auth_mode::mac;
  a.key = std::move(mac_key);
  a.limit = cfg_.protected_limit;
  a.tag_bytes = cfg_.tag_bytes;
  a.tag_base = cfg_.tag_base;
  a.versioned = cfg_.level == integrity_level::mac_versioned;
  auth_.emplace(lower, std::move(a), line_bytes);
}

std::string_view integrity_edu::name() const noexcept {
  switch (cfg_.level) {
    case integrity_level::none: return "Integrity-off";
    case integrity_level::mac: return "Integrity-MAC";
    case integrity_level::mac_versioned: return "Integrity-MAC+ver";
  }
  return "?";
}

static_assert(integrity_edu::line_bytes % crypto::max_block == 0);

void integrity_edu::pad_line(addr_t line_addr, u64 version, std::span<u8> buf) const {
  // Pad block i = E(counter_block(tweak ^ block index, version)): the
  // index and the version fill separate halves of the 16-byte block, so
  // the pad is seekable by address AND fresh per version, and no pad
  // repeats across writes when versioning is on. The line's counter
  // blocks go through one encrypt_blocks call.
  constexpr std::size_t bs = crypto::max_block;
  std::array<u8, line_bytes> pads;
  for (std::size_t off = 0; off < pads.size(); off += bs)
    crypto::counter_block(std::span<u8>(pads).subspan(off, bs),
                          tweak ^ ((line_addr + off) / bs), version);
  prf_->encrypt_blocks(pads, pads);
  xor_bytes(buf, pads);
}

cycles integrity_edu::read_line(addr_t line_addr, std::span<u8> out) {
  const cycles mem = lower_->read(line_addr, out);
  cycles total = mem;

  if (auth_) {
    // Fetch and verify the tag BEFORE releasing data to the cache. The
    // MAC unit streams over the beats as they arrive, so only its fill
    // latency plus any excess over the burst is exposed.
    const auto cr = auth_->verify_unit(line_addr, out, /*charge=*/true);
    const cycles exposed = engine::memory_authenticator::mac_startup +
                           (cr.compute > mem ? cr.compute - mem : 0);
    total += cr.bus + exposed;
    stats_.crypto_cycles += exposed;
  }

  // Decrypt: pad generation overlapped with the fetch.
  pad_line(line_addr, version_of(line_addr), out);
  const std::size_t nblocks = pad_core.blocks_for(line_bytes);
  stats_.cipher_blocks += nblocks;
  const cycles pad_t = pad_core.time_parallel(nblocks);
  if (pad_t > mem) {
    total += pad_t - mem;
    stats_.crypto_cycles += pad_t - mem;
  }
  total += xor_cycles;
  return total;
}

cycles integrity_edu::write_line(addr_t line_addr, std::span<u8> ct) {
  pad_line(line_addr, next_version(line_addr), ct);
  const std::size_t nblocks = pad_core.blocks_for(line_bytes);
  stats_.cipher_blocks += nblocks;

  cycles total = pad_core.time_parallel(nblocks) + xor_cycles;
  stats_.crypto_cycles += total;
  total += lower_->write(line_addr, ct);

  if (auth_) {
    // Bumps the version to the one the pad used and stores the new tag.
    const auto cr = auth_->update_unit(line_addr, ct, /*charge=*/true);
    total += cr.compute + cr.bus;
    stats_.crypto_cycles += cr.compute;
  }
  return total;
}

void integrity_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  const std::size_t lb = line_bytes;
  const std::size_t nblocks = pad_core.blocks_for(lb);
  const cycles pad_t = pad_core.time_parallel(nblocks);
  engine::memory_authenticator* auth = auth_ ? &*auth_ : nullptr;

  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    if (txn.data.empty() || !sim::whole_granules(txn.addr, txn.data.size(), lb)) {
      b.detour_via(txn, *this);
      continue;
    }
    if (txn.is_write()) ++stats_.writes;
    else ++stats_.reads;
    for (std::size_t off = 0; off < txn.data.size(); off += lb) {
      const addr_t a = txn.addr + off;
      std::span<u8> line = txn.data.subspan(off, lb);
      stats_.cipher_blocks += nblocks;
      if (txn.is_write()) {
        bytes& ct = b.scratch_copy(line);
        pad_line(a, next_version(a), ct);
        b.add_par(sim::txn_batcher::no_lower, pad_t, xor_cycles);
        stats_.crypto_cycles += pad_t + xor_cycles;
        (void)b.queue(sim::txn_op::write, txn.master, a, ct);
        if (auth) {
          // Bumps the version and rides the tag store on this window.
          const cycles mac_t =
              auth->batch_stage_update(a, ct, /*charge=*/true, b, txn.master);
          stats_.crypto_cycles += mac_t;
          b.add_pre(mac_t);
        }
        continue;
      }
      // Read: snapshot the version now (a later in-window write must not
      // bleed its bumped version into this line's pad or tag check).
      const u64 v = version_of(a);
      const std::size_t li = b.queue(sim::txn_op::read, txn.master, a, line);
      if (auth) {
        // The serial MAC unit starts once data AND tag have arrived;
        // verification consumes the ciphertext before the pad pass.
        auto sv = auth->batch_prepare_verify(a, b, txn.master);
        const std::size_t fetch = sv.fetch;
        const cycles mac_t = auth->unit_mac_cycles();
        stats_.crypto_cycles += mac_t;
        b.add_gated(li, fetch, mac_t, [auth, sv = std::move(sv), line] {
          (void)auth->batch_finish_verify(sv, line, /*charge=*/true);
        });
      }
      stats_.crypto_cycles += xor_cycles;
      b.add_par(li, pad_t, xor_cycles, [this, a, v, line] { pad_line(a, v, line); });
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles integrity_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  return read_cover(addr, out, line_bytes, [this](addr_t base, std::span<u8> cover) {
    return per_granule(base, cover, line_bytes,
                       std::bind_front(&integrity_edu::read_line, this));
  });
}

cycles integrity_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  // The tag covers whole lines: sub-line stores read-modify-write.
  return write_cover(
      addr, in, line_bytes, std::bind_front(&integrity_edu::read, this),
      [this](addr_t base, std::span<u8> cover) {
        return per_granule(base, cover, line_bytes,
                           std::bind_front(&integrity_edu::write_line, this));
      });
}

} // namespace buscrypt::edu
