#include "sim/cpu.hpp"

#include "common/bitops.hpp"

#include <array>

namespace buscrypt::sim {

run_stats cpu::run(const workload& w) {
  run_stats rs;
  std::array<u8, 8> buf{};

  for (const mem_access& acc : w.accesses) {
    const std::size_t n = acc.size;
    cycles latency = 0;
    rs.bytes += n;
    switch (acc.kind) {
      case access_kind::fetch:
        ++rs.instructions;
        rs.total_cycles += 1; // issue slot
        latency = l1i_->read(acc.addr, std::span<u8>(buf.data(), n));
        break;
      case access_kind::load:
        ++rs.mem_ops;
        latency = l1d_->read(acc.addr, std::span<u8>(buf.data(), n));
        break;
      case access_kind::store: {
        ++rs.mem_ops;
        fill_store_pattern(acc.addr, std::span<u8>(buf.data(), n));
        latency = l1d_->write(acc.addr, std::span<const u8>(buf.data(), n));
        break;
      }
    }
    constexpr cycles hit = cache_config::hit_latency;
    const cycles stall = latency > hit ? latency - hit : 0;
    rs.total_cycles += stall;
    rs.stall_cycles += stall;
  }
  return rs;
}

} // namespace buscrypt::sim
