#include "edu/cacheside_edu.hpp"

#include <algorithm>

namespace buscrypt::edu {

cacheside_edu::cacheside_edu(sim::cache& l1, const crypto::block_cipher& prf)
    : edu(l1), cache_(&l1), pad_(prf, tweak) {}

void cacheside_edu::apply_pad(addr_t addr, std::span<u8> buf) {
  pad_.apply(addr, buf);
  stats_.cipher_blocks += pad_.blocks_covering(addr, buf.size());
}

cacheside_edu::access_io cacheside_edu::do_access(addr_t addr, std::span<u8> inout,
                                                  bool is_write,
                                                  std::span<const u8> wdata) {
  const bool was_resident = cache_->contains(addr);
  const sim::cache_config& cc = cache_->config();

  access_io io;
  if (is_write) {
    // Encrypt the store data, then let the (ciphertext) cache absorb it.
    sim::stack_window ct(wdata);
    apply_pad(addr, ct.span());
    io.below = lower_->write(addr, ct.span());
    ++stats_.writes;
  } else {
    io.below = lower_->read(addr, inout);
    apply_pad(addr, inout);
    ++stats_.reads;
  }

  // The cipher stage sits on the CPU<->cache path: charged on EVERY access.
  io.below += xor_cycles;
  stats_.crypto_cycles += xor_cycles;

  if (!was_resident) {
    // A line (re)entered the cache: its keystream must be regenerated into
    // the keystream RAM. Generation runs concurrently with the external
    // fetch; the fetch time is what the cache charged beyond its hit
    // latency (and the XOR stage just added).
    const cycles beyond = cc.hit_latency + xor_cycles;
    io.fetch = io.below > beyond ? io.below - beyond : 0;
    const addr_t line_addr = sim::cover_of(addr, 1, cc.line_size).base;
    io.ks = pad_core.time_parallel(pad_.blocks_covering(line_addr, cc.line_size));
    stats_.cipher_blocks += pad_.blocks_covering(line_addr, cc.line_size);
  }
  return io;
}

cycles cacheside_edu::access(addr_t addr, std::span<u8> inout, bool is_write,
                             std::span<const u8> wdata) {
  const access_io io = do_access(addr, inout, is_write, wdata);
  // Scalar issue: only this access's own fetch can hide its regeneration.
  const cycles over = io.ks > io.fetch ? io.ks - io.fetch : 0;
  stats_.crypto_cycles += over;
  return io.below + over;
}

void cacheside_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  const cycles base = pending_txn_cycles_;

  cycles served = 0;      ///< cache + XOR time, accumulated in order
  cycles ks_total = 0;    ///< keystream regeneration the window owes
  cycles fetch_total = 0; ///< external-fetch time it can hide behind
  for (sim::mem_txn& txn : batch) {
    const access_io io = do_access(txn.addr, txn.data, txn.is_write(), txn.data);
    served += io.below;
    ks_total += io.ks;
    fetch_total += io.fetch;
    txn.complete_cycle = base + served; // in-order: the cache is serial
  }
  const cycles overrun = ks_total > fetch_total ? ks_total - fetch_total : 0;
  stats_.crypto_cycles += overrun;
  pending_txn_cycles_ += served + overrun;
}

cycles cacheside_edu::read(addr_t addr, std::span<u8> out) {
  return access(addr, out, /*is_write=*/false, {});
}

cycles cacheside_edu::write(addr_t addr, std::span<const u8> in) {
  return access(addr, {}, /*is_write=*/true, in);
}

} // namespace buscrypt::edu
