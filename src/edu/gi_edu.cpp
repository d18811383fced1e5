#include "edu/gi_edu.hpp"

#include "common/bitops.hpp"
#include "crypto/modes.hpp"
#include "sim/txn_batcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::edu {

gi_edu::gi_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
               bytes mac_key, gi_edu_config cfg)
    : edu(lower), cipher_(&cipher), mac_key_(mac_key), cfg_(cfg) {
  if (cfg_.segment_bytes % cipher.block_size() != 0)
    throw std::invalid_argument("gi_edu: segment must be a block multiple");
}

std::array<u8, 32> gi_edu::compute_tag(addr_t seg_base,
                                       std::span<const u8> plain) const noexcept {
  // Keyed hash over (address || plaintext) so segments cannot be swapped.
  u8 head[8];
  store_be64(head, seg_base);
  return mac_key_.mac(head, plain);
}

cycles gi_edu::hash_time(std::size_t nbytes) const noexcept {
  return hash_startup +
         static_cast<cycles>(static_cast<double>(nbytes) * hash_cycles_per_byte);
}

void gi_edu::touch_verified(addr_t seg_base) {
  auto it = std::find(verified_lru_.begin(), verified_lru_.end(), seg_base);
  if (it != verified_lru_.end()) verified_lru_.erase(it);
  verified_lru_.push_back(seg_base);
  if (verified_lru_.size() > cfg_.verified_cache_entries)
    verified_lru_.erase(verified_lru_.begin());
}

bool gi_edu::recently_verified(addr_t seg_base) const noexcept {
  return std::find(verified_lru_.begin(), verified_lru_.end(), seg_base) !=
         verified_lru_.end();
}

std::pair<cycles, bool> gi_edu::charge_open(addr_t seg_base) {
  // The verified-LRU decision is state, not data: advance it now, so a
  // batch window's later opens see it in submission order.
  const bool verify = cfg_.authenticate && !recently_verified(seg_base);
  if (verify) touch_verified(seg_base);
  const std::size_t nblocks = core.blocks_for(cfg_.segment_bytes);
  const cycles crypt =
      core.time_parallel(nblocks) + (verify ? hash_time(cfg_.segment_bytes) : 0);
  stats_.cipher_blocks += nblocks + 1;
  stats_.crypto_cycles += crypt;
  return {crypt, verify};
}

void gi_edu::open_segment(addr_t seg_base, std::span<u8> seg, bool verify) {
  crypto::cbc_decrypt_at(*cipher_, iv_tweak ^ seg_base, 0, seg);
  if (!verify) return;
  const auto it = tags_.find(seg_base);
  const auto t = compute_tag(seg_base, seg);
  if (it == tags_.end() ||
      !crypto::tag_equal(std::span(t).first<tag_bytes>(), it->second))
    ++auth_failures_;
}

cycles gi_edu::load_segment(addr_t seg_base, std::span<u8> seg) {
  const cycles mem = lower_->read(seg_base, seg);
  const auto [crypt, verify] = charge_open(seg_base);
  open_segment(seg_base, seg, verify);
  return mem + crypt;
}

cycles gi_edu::store_segment(addr_t seg_base, std::span<const u8> plain) {
  sim::stack_window ct(plain);
  crypto::cbc_encrypt_at(*cipher_, iv_tweak ^ seg_base, 0, ct.span());
  const std::size_t nblocks = core.blocks_for(cfg_.segment_bytes);
  stats_.cipher_blocks += nblocks + 1;

  cycles spent = core.time_chained(nblocks); // CBC encrypt is serial
  if (cfg_.authenticate) {
    const auto t = compute_tag(seg_base, plain);
    std::copy_n(t.begin(), tag_bytes, tags_[seg_base].begin());
    spent += hash_time(cfg_.segment_bytes);
    touch_verified(seg_base);
  }
  stats_.crypto_cycles += spent;
  spent += lower_->write(seg_base, ct.span());
  return spent;
}

cycles gi_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  cycles total = 0;
  sim::walk_granules(
      addr, out.size(), cfg_.segment_bytes,
      [&](addr_t base, std::size_t off, std::size_t n, std::size_t done) {
        sim::stack_window seg(cfg_.segment_bytes);
        total += load_segment(base, seg.span());
        std::ranges::copy(seg.span().subspan(off, n), out.begin() + done);
      });
  return total;
}

void gi_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    // Writes RMW whole segments (data-dependent ciphertext): scalar detour.
    if (txn.is_write()) {
      b.detour_via(txn, *this);
      continue;
    }
    ++stats_.reads; // one count per txn, as scalar issue of this op
    sim::walk_granules(
        txn.addr, txn.data.size(), cfg_.segment_bytes,
        [&](addr_t base, std::size_t off, std::size_t n, std::size_t done) {
          bytes& buf = b.scratch(cfg_.segment_bytes);
          const std::size_t li = b.queue(sim::txn_op::read, txn.master, base, buf);
          const auto [crypt, verify] = charge_open(base);
          b.add_gated(li, sim::txn_batcher::no_lower, crypt,
                      [this, base, &buf, off, out = txn.data.subspan(done, n), verify] {
                        open_segment(base, buf, verify);
                        std::ranges::copy(std::span(buf).subspan(off, out.size()),
                                          out.begin());
                      });
        });
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles gi_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  cycles total = 0;
  sim::walk_granules(
      addr, in.size(), cfg_.segment_bytes,
      [&](addr_t base, std::size_t off, std::size_t n, std::size_t done) {
        if (n == cfg_.segment_bytes) {
          // Full-segment write: no need to fetch the old contents.
          total += store_segment(base, in.subspan(done, n));
          return;
        }
        // Whole-segment read-modify-write: the CBC chain and the tag both
        // cover the full segment.
        ++stats_.rmw_ops;
        sim::stack_window seg(cfg_.segment_bytes);
        total += load_segment(base, seg.span());
        std::ranges::copy(in.subspan(done, n), seg.span().begin() + off);
        total += store_segment(base, seg.span());
      });
  return total;
}

} // namespace buscrypt::edu
