#include "edu/stream_edu.hpp"

#include "sim/txn_batcher.hpp"

#include <algorithm>

namespace buscrypt::edu {

stream_edu::stream_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                       stream_edu_config cfg)
    : edu(lower), pad_(prf, tweak), cfg_(cfg) {}

cycles stream_edu::pad_time(addr_t addr, std::size_t len) const noexcept {
  return pad_core.time_parallel(pad_.blocks_covering(addr, len));
}

void stream_edu::apply_pad(addr_t addr, std::span<u8> buf) {
  pad_.apply(addr, buf);
  stats_.cipher_blocks += pad_.blocks_covering(addr, buf.size());
}

cycles stream_edu::charge(addr_t addr, std::size_t len, cycles mem) {
  const cycles pad = pad_time(addr, len);
  // With the parallel keystream, pad generation starts from the address
  // alone, concurrently with the bus transfer (a write buffer lets writes
  // overlap it the same way); only the excess, if any, is exposed.
  const cycles total = cfg_.parallel_keystream ? std::max(mem, pad) + xor_cycles
                                               : mem + pad + xor_cycles;
  stats_.crypto_cycles += total - mem;
  return total;
}

cycles stream_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  const cycles mem = lower_->read(addr, out);
  apply_pad(addr, out);
  return charge(addr, out.size(), mem);
}

void stream_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    std::span<u8> data = txn.data;
    if (txn.is_write()) {
      ++stats_.writes;
      // The pad needs only the address, so ciphertext is staged up front.
      data = b.scratch_copy(txn.data);
      apply_pad(txn.addr, data);
    } else {
      ++stats_.reads;
    }
    const std::size_t li = b.queue(txn.op, txn.master, txn.addr, data);
    const cycles pad = pad_time(txn.addr, data.size());
    if (cfg_.parallel_keystream)
      b.add_par(li, pad, xor_cycles);
    else
      b.add_gated(li, sim::txn_batcher::no_lower, pad + xor_cycles);
  }
  b.flush();

  // Reads decrypt as their data lands on the internal side of the bus.
  for (sim::mem_txn& txn : batch)
    if (!txn.is_write()) apply_pad(txn.addr, txn.data);
  stats_.crypto_cycles += b.clock() - b.lower_cycles();
  pending_txn_cycles_ += b.clock();
}

cycles stream_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  sim::stack_window ct(in);
  apply_pad(addr, ct.span());
  return charge(addr, in.size(), lower_->write(addr, ct.span()));
}

} // namespace buscrypt::edu
