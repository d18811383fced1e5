#include "edu/stream_edu.hpp"

#include "common/bitops.hpp"

#include <algorithm>

namespace buscrypt::edu {

stream_edu::stream_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                       stream_edu_config cfg)
    : edu(lower), pad_(prf, cfg.tweak), cfg_(cfg) {}

cycles stream_edu::pad_time(addr_t addr, std::size_t len) const noexcept {
  return cfg_.pad_core.time_parallel(pad_.blocks_covering(addr, len));
}

void stream_edu::apply_pad(addr_t addr, std::span<u8> buf) {
  bytes pad_bytes(buf.size());
  pad_.generate(addr, pad_bytes);
  stats_.cipher_blocks += pad_.blocks_covering(addr, buf.size());
  xor_bytes(buf, pad_bytes);
}

cycles stream_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  const cycles mem = lower_->read(addr, out);
  apply_pad(addr, out);

  const cycles pad = pad_time(addr, out.size());
  cycles total;
  if (cfg_.parallel_keystream) {
    // Pad generation starts from the address alone, concurrently with the
    // external fetch; only the excess (if any) is exposed.
    total = std::max(mem, pad) + cfg_.xor_cycles;
  } else {
    total = mem + pad + cfg_.xor_cycles;
  }
  stats_.crypto_cycles += total - mem;
  return total;
}

void stream_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());

  // Stage ciphertext for every write up front (the pad needs only the
  // address, so all of it can be generated before any data moves). The
  // lower batch copies each txn, so its master rides down to the beats.
  std::vector<bytes> staged;
  staged.reserve(batch.size()); // no reallocation: spans below stay valid
  std::vector<sim::mem_txn> lower(batch.begin(), batch.end());
  std::vector<cycles> txn_pad(batch.size(), 0);
  cycles pad_total = 0;
  for (std::size_t ti = 0; ti < batch.size(); ++ti) {
    const sim::mem_txn& txn = batch[ti];
    txn_pad[ti] = pad_time(txn.addr, txn.data.size());
    pad_total += txn_pad[ti];
    if (txn.is_write()) {
      ++stats_.writes;
      bytes& ct = staged.emplace_back(txn.data.begin(), txn.data.end());
      apply_pad(txn.addr, ct);
      lower[ti].data = ct;
    } else {
      ++stats_.reads;
    }
  }

  lower_->submit(lower);
  const cycles mem = lower_->drain();

  // Reads decrypt as their data lands on the internal side of the bus.
  for (sim::mem_txn& txn : batch)
    if (!txn.is_write()) apply_pad(txn.addr, txn.data);

  // The xor stage runs once per txn, as in scalar issue.
  const cycles xr = cfg_.xor_cycles * batch.size();
  const cycles total = cfg_.parallel_keystream ? std::max(mem, pad_total) + xr
                                               : mem + pad_total + xr;
  stats_.crypto_cycles += total - mem;
  // Per-txn stamps, consistent with the makespan above: with the parallel
  // keystream a txn completes when both its data and its share of the pad
  // (generated in txn order) are in hand; serial hardware instead chains
  // pad work after each arrival. Stamps stay monotone (in-order retire)
  // and never exceed `total`.
  cycles pad_prefix = 0, serial_done = 0, mono = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const cycles arrival = lower[i].complete_cycle;
    pad_prefix += txn_pad[i];
    cycles fin;
    if (cfg_.parallel_keystream) {
      fin = std::max(arrival, pad_prefix) + cfg_.xor_cycles;
    } else {
      serial_done = std::max(serial_done, arrival) + txn_pad[i] + cfg_.xor_cycles;
      fin = serial_done;
    }
    mono = std::max(mono, fin);
    batch[i].complete_cycle = pending_txn_cycles_ + mono;
  }
  pending_txn_cycles_ += total;
}

cycles stream_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  bytes ct(in.begin(), in.end());
  apply_pad(addr, ct);

  const cycles pad = pad_time(addr, in.size());
  const cycles mem = lower_->write(addr, ct);
  // A write buffer lets pad generation overlap the bus transfer the same
  // way reads do.
  const cycles total = cfg_.parallel_keystream ? std::max(mem, pad) + cfg_.xor_cycles
                                               : mem + pad + cfg_.xor_cycles;
  stats_.crypto_cycles += total - mem;
  return total;
}

} // namespace buscrypt::edu
