#include "sim/bus.hpp"

#include <algorithm>

namespace buscrypt::sim {

void recording_probe::on_beat(const bus_beat& beat) {
  ++seen_;
  if (capacity_ == 0 || log_.size() < capacity_) {
    log_.push_back(beat);
    return;
  }
  // Ring full: overwrite the oldest slot.
  log_[head_] = beat;
  head_ = (head_ + 1) % capacity_;
}

const std::vector<bus_beat>& recording_probe::log() const {
  if (head_ != 0) {
    // Normalise the ring so the vector reads oldest-first.
    std::rotate(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(head_),
                log_.end());
    head_ = 0;
  }
  return log_;
}

void external_memory::emit_beats(addr_t addr, std::span<const u8> data, bool write,
                                 cycles at, master_id master) {
  const unsigned bus_bytes = dram_->timing().bus_bytes;
  beats_ += (data.size() + bus_bytes - 1) / bus_bytes;
  if (probes_.empty()) return;
  for (std::size_t off = 0; off < data.size(); off += bus_bytes) {
    bus_beat beat;
    beat.addr = addr + off;
    beat.write = write;
    beat.master = master;
    const std::size_t n = std::min<std::size_t>(bus_bytes, data.size() - off);
    beat.data.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                     data.begin() + static_cast<std::ptrdiff_t>(off + n));
    beat.at = at + (off / bus_bytes) * dram_->timing().beat;
    for (bus_probe* p : probes_) p->on_beat(beat);
  }
}

cycles external_memory::read(addr_t addr, std::span<u8> out) {
  dram_->read_bytes(addr, out);
  // Stamp beats at data-arrival (after activate/CAS), the same convention
  // submit() uses, so scalar and batched traffic through one probe share a
  // single timebase.
  const cycles first = dram_->first_latency(addr);
  const cycles t = first + dram_->burst_cycles(out.size());
  emit_beats(addr, out, /*write=*/false, now_ + first, scalar_master_);
  now_ += t;
  bytes_read_ += out.size();
  return t;
}

cycles external_memory::write(addr_t addr, std::span<const u8> in) {
  dram_->write_bytes(addr, in);
  const cycles first = dram_->first_latency(addr);
  const cycles t = first + dram_->burst_cycles(in.size());
  emit_beats(addr, in, /*write=*/true, now_ + first, scalar_master_);
  now_ += t;
  bytes_written_ += in.size();
  return t;
}

void external_memory::submit(std::span<mem_txn> batch) {
  // The scheduled path: each txn's activate/CAS binds to its bank
  // (distinct banks overlap), data beats serialise on the bus.
  // Functional effects stay in submission order; scalar calls never leave
  // bank_ready_ ahead of now_, so stale entries are harmless.
  const cycles start = now_;
  cycles bus_free = start;
  cycles last = start;
  for (mem_txn& txn : batch) {
    if (txn.is_write()) {
      dram_->write_bytes(txn.addr, txn.data);
      bytes_written_ += txn.data.size();
    } else {
      dram_->read_bytes(txn.addr, txn.data);
      bytes_read_ += txn.data.size();
    }
    const unsigned b = dram_->bank_of(txn.addr);
    const cycles cmd = std::max(start, bank_ready_[b]);
    const cycles data_ready = cmd + dram_->first_latency(txn.addr);
    const cycles bus_start = std::max(data_ready, bus_free);
    const cycles done = bus_start + dram_->burst_cycles(txn.data.size());
    bank_ready_[b] = done;
    bus_free = done;
    emit_beats(txn.addr, txn.data, txn.is_write(), bus_start, txn.master);
    last = std::max(last, done);
    txn.complete_cycle = pending_txn_cycles_ + (last - start);
  }
  pending_txn_cycles_ += last - start;
  now_ = last;
}

} // namespace buscrypt::sim
