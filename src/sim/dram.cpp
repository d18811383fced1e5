#include "sim/dram.hpp"

#include <stdexcept>

namespace buscrypt::sim {

dram::dram(std::size_t size, dram_timing timing)
    : store_(size, 0), timing_(timing),
      open_rows_(timing.banks == 0 ? 1 : timing.banks, ~addr_t{0}) {
  if (size == 0) throw std::invalid_argument("dram: zero size");
  if (timing_.banks == 0) throw std::invalid_argument("dram: invalid timing parameters");
}

void dram::check_range(addr_t addr, std::size_t len) const {
  if (addr + len > store_.size() || addr + len < addr)
    throw std::out_of_range("dram: access beyond end of memory");
}

void dram::read_bytes(addr_t addr, std::span<u8> out) const {
  check_range(addr, out.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = store_[addr + i];
}

void dram::write_bytes(addr_t addr, std::span<const u8> in) {
  check_range(addr, in.size());
  for (std::size_t i = 0; i < in.size(); ++i) store_[addr + i] = in[i];
}

unsigned dram::bank_of(addr_t addr) const noexcept {
  return static_cast<unsigned>((addr / timing_.row_size) % timing_.banks);
}

cycles dram::first_latency(addr_t addr) {
  const addr_t row = addr / timing_.row_size;
  addr_t& open = open_rows_[row % timing_.banks];
  if (row == open) {
    ++row_hits_;
    return timing_.row_hit;
  }
  ++row_misses_;
  open = row;
  return timing_.row_miss;
}

cycles dram::burst_cycles(std::size_t len) const noexcept {
  const std::size_t beats = (len + timing_.bus_bytes - 1) / timing_.bus_bytes;
  return static_cast<cycles>(beats) * timing_.beat;
}

cycles dram::access_time(addr_t addr, std::size_t len) {
  check_range(addr, len);
  return first_latency(addr) + burst_cycles(len);
}

} // namespace buscrypt::sim
