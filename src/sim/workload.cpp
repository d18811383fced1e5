#include "sim/workload.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::sim {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

addr_t align_down(addr_t a, addr_t align) { return a - (a % align); }

} // namespace

workload make_sequential_code(std::size_t n_instr, std::size_t code_size,
                              std::size_t loop_every, u64 seed) {
  require(code_size >= 64, "make_sequential_code: code_size too small");
  rng r(seed);
  workload w;
  w.name = "seq-code";
  w.footprint = code_size;
  w.accesses.reserve(n_instr);

  addr_t pc = 0;
  std::size_t since_loop = 0;
  std::size_t jumps = 0;
  for (std::size_t i = 0; i < n_instr; ++i) {
    w.accesses.push_back({pc, 4, access_kind::fetch});
    pc += 4;
    ++since_loop;
    if (loop_every != 0 && since_loop >= loop_every) {
      // Short backward loop, like firmware polling/copy loops.
      const addr_t span = std::min<addr_t>(pc, 64 + r.below(192));
      pc = align_down(pc - span, 4);
      since_loop = 0;
      ++jumps;
    }
    if (pc + 4 > code_size) {
      pc = 0;
      ++jumps;
    }
  }
  w.jump_rate =
      n_instr == 0 ? 0.0 : static_cast<double>(jumps) / static_cast<double>(n_instr);
  return w;
}

workload make_jumpy_code(std::size_t n_instr, std::size_t code_size,
                         double jump_rate, u64 seed) {
  require(code_size >= 64, "make_jumpy_code: code_size too small");
  require(jump_rate >= 0.0 && jump_rate <= 1.0, "make_jumpy_code: bad jump_rate");
  rng r(seed);
  workload w;
  w.name = "jumpy-code";
  w.footprint = code_size;
  w.jump_rate = jump_rate;
  w.accesses.reserve(n_instr);

  addr_t pc = 0;
  for (std::size_t i = 0; i < n_instr; ++i) {
    w.accesses.push_back({pc, 4, access_kind::fetch});
    if (r.chance(jump_rate)) {
      pc = align_down(r.below(code_size - 4), 4);
    } else {
      pc += 4;
      if (pc + 4 > code_size) pc = 0;
    }
  }
  return w;
}

workload make_data_rw(std::size_t n_instr, std::size_t working_set, double mem_rate,
                      double write_fraction, u8 store_size, u64 seed) {
  require(working_set >= 64, "make_data_rw: working_set too small");
  require(store_size == 1 || store_size == 2 || store_size == 4 || store_size == 8,
          "make_data_rw: store_size must be 1/2/4/8");
  rng r(seed);
  workload w;
  w.name = "data-rw";
  w.footprint = working_set;
  w.write_fraction = mem_rate * write_fraction;
  w.accesses.reserve(
      static_cast<std::size_t>(static_cast<double>(n_instr) * (1.0 + mem_rate)));

  // Code region below the data region so they do not collide in the cache
  // in pathological ways; 16 KiB of code looped over.
  constexpr std::size_t code_size = 16 * 1024;
  const addr_t data_base = 1 << 20;

  addr_t pc = 0;
  for (std::size_t i = 0; i < n_instr; ++i) {
    w.accesses.push_back({pc, 4, access_kind::fetch});
    pc = (pc + 4) % code_size;
    if (r.chance(mem_rate)) {
      const bool is_store = r.chance(write_fraction);
      const addr_t a =
          data_base + align_down(r.below(working_set - 8), store_size);
      w.accesses.push_back(
          {a, store_size, is_store ? access_kind::store : access_kind::load});
    }
  }
  return w;
}

workload make_pointer_chase(std::size_t n_loads, std::size_t working_set, u64 seed) {
  require(working_set >= 64, "make_pointer_chase: working_set too small");
  rng r(seed);
  workload w;
  w.name = "ptr-chase";
  w.footprint = working_set;
  w.accesses.reserve(n_loads * 2);

  constexpr std::size_t code_size = 4 * 1024;
  const addr_t data_base = 1 << 20;
  addr_t pc = 0;
  addr_t cursor = data_base;
  for (std::size_t i = 0; i < n_loads; ++i) {
    w.accesses.push_back({pc, 4, access_kind::fetch});
    pc = (pc + 4) % code_size;
    w.accesses.push_back({cursor, 8, access_kind::load});
    // Next pointer is a deterministic pseudo-random hop.
    cursor = data_base + align_down(r.below(working_set - 8), 8);
  }
  return w;
}

workload make_streaming(std::size_t n_elems, std::size_t array_size,
                        std::size_t write_every, u64 seed) {
  require(array_size >= 64, "make_streaming: array_size too small");
  rng r(seed);
  (void)r;
  workload w;
  w.name = "streaming";
  w.footprint = array_size;
  w.accesses.reserve(n_elems * 2);

  constexpr std::size_t code_size = 1024;
  const addr_t data_base = 1 << 20;
  addr_t pc = 0;
  std::size_t writes = 0;
  for (std::size_t i = 0; i < n_elems; ++i) {
    w.accesses.push_back({pc, 4, access_kind::fetch});
    pc = (pc + 4) % code_size;
    const addr_t a = data_base + (i * 8) % array_size;
    w.accesses.push_back({a, 8, access_kind::load});
    if (write_every != 0 && i % write_every == write_every - 1) {
      w.accesses.push_back({a, 8, access_kind::store});
      ++writes;
    }
  }
  w.write_fraction =
      n_elems == 0 ? 0.0 : static_cast<double>(writes) / static_cast<double>(2 * n_elems);
  return w;
}

workload make_dma_copy(std::size_t n_bytes, addr_t src_base, addr_t dst_base,
                       std::size_t burst_bytes, u64 seed) {
  require(burst_bytes >= 8 && burst_bytes % 8 == 0,
          "make_dma_copy: burst must be a multiple of 8");
  require(n_bytes % burst_bytes == 0, "make_dma_copy: n_bytes must be whole bursts");
  rng r(seed);
  (void)r; // DMA streams are deterministic; the seed is kept for API symmetry
  workload w;
  w.name = "dma-copy";
  w.footprint = 2 * n_bytes;
  w.accesses.reserve(2 * n_bytes / 8);

  for (std::size_t off = 0; off < n_bytes; off += burst_bytes) {
    for (std::size_t b = 0; b < burst_bytes; b += 8)
      w.accesses.push_back({src_base + off + b, 8, access_kind::load});
    for (std::size_t b = 0; b < burst_bytes; b += 8)
      w.accesses.push_back({dst_base + off + b, 8, access_kind::store});
  }
  w.write_fraction = 0.5;
  return w;
}

workload make_peripheral_poll(std::size_t n_polls, addr_t reg_base, std::size_t n_regs,
                              std::size_t reg_stride, std::size_t write_every,
                              u64 seed) {
  require(n_regs >= 1, "make_peripheral_poll: need >= 1 register");
  require(reg_stride >= 4, "make_peripheral_poll: registers must not overlap");
  rng r(seed);
  (void)r;
  workload w;
  w.name = "periph-poll";
  w.footprint = n_regs * reg_stride;
  w.accesses.reserve(n_polls + (write_every ? n_polls / write_every : 0));

  std::size_t writes = 0;
  for (std::size_t i = 0; i < n_polls; ++i) {
    const addr_t reg = reg_base + (i % n_regs) * reg_stride;
    w.accesses.push_back({reg, 4, access_kind::load});
    if (write_every != 0 && i % write_every == write_every - 1) {
      w.accesses.push_back({reg, 4, access_kind::store});
      ++writes;
    }
  }
  w.write_fraction = w.accesses.empty() ? 0.0
                                        : static_cast<double>(writes) /
                                              static_cast<double>(w.accesses.size());
  return w;
}

workload offset_workload(workload w, addr_t base) {
  for (mem_access& acc : w.accesses) acc.addr += base;
  return w;
}

workload confine_workload(workload w, addr_t base, std::size_t len) {
  require(len >= 64 && len % 8 == 0,
          "confine_workload: len must be >= 64 and a multiple of 8");
  for (mem_access& acc : w.accesses)
    acc.addr = base + acc.addr % static_cast<addr_t>(len);
  w.footprint = len;
  return w;
}

std::vector<port_op> to_port_ops(const workload& w, std::size_t chunk) {
  require(chunk >= 8 && chunk % 8 == 0, "to_port_ops: chunk must be a multiple of 8");
  std::vector<port_op> ops;
  ops.reserve(w.accesses.size());
  for (const mem_access& acc : w.accesses) {
    const port_op op{acc.addr - acc.addr % chunk, acc.kind == access_kind::store};
    if (!ops.empty() && ops.back().addr == op.addr && ops.back().write == op.write)
      continue; // the L1 would have filtered this repeat
    ops.push_back(op);
  }
  return ops;
}

throughput_stats issue_scalar(memory_port& port, std::span<const port_op> ops,
                              std::size_t chunk) {
  throughput_stats ts;
  bytes buf(chunk);
  for (const port_op& op : ops) {
    if (op.write) {
      fill_store_pattern(op.addr, buf);
      ts.total_cycles += port.write(op.addr, buf);
    } else {
      ts.total_cycles += port.read(op.addr, buf);
    }
    ++ts.ops;
    ts.bytes += chunk;
  }
  return ts;
}

void lower_window(std::span<const port_op> ops, std::size_t chunk, master_id master,
                  bytes& lanes, std::vector<mem_txn>& out) {
  out.clear();
  lanes.resize(ops.size() * chunk);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::span<u8> lane(lanes.data() + i * chunk, chunk);
    if (ops[i].write) fill_store_pattern(ops[i].addr, lane);
    out.push_back({.op = ops[i].write ? txn_op::write : txn_op::read,
                   .master = master,
                   .addr = ops[i].addr,
                   .data = lane});
  }
}

throughput_stats issue_batched(memory_port& port, std::span<const port_op> ops,
                               std::size_t chunk, std::size_t batch_txns) {
  require(batch_txns >= 1, "issue_batched: batch_txns must be >= 1");
  throughput_stats ts;
  bytes lanes; // one backing lane per in-flight txn
  std::vector<mem_txn> batch;
  batch.reserve(batch_txns);
  for (std::size_t base = 0; base < ops.size(); base += batch_txns) {
    const std::size_t n = std::min(batch_txns, ops.size() - base);
    lower_window(ops.subspan(base, n), chunk, cpu_master, lanes, batch);
    port.submit(batch);
    ts.total_cycles += port.drain();
    ts.ops += n;
    ts.bytes += n * chunk;
  }
  return ts;
}

std::vector<workload> standard_suite(u64 seed) {
  std::vector<workload> suite;
  suite.push_back(make_sequential_code(200'000, 96 * 1024, 400, seed + 1));
  suite.back().name = "firmware-seq";
  suite.push_back(make_jumpy_code(200'000, 256 * 1024, 0.10, seed + 2));
  suite.back().name = "branchy-10%";
  suite.push_back(make_data_rw(150'000, 512 * 1024, 0.35, 0.3, 4, seed + 3));
  suite.back().name = "data-mix";
  suite.push_back(make_pointer_chase(60'000, 1 << 20, seed + 4));
  suite.back().name = "ptr-chase";
  suite.push_back(make_streaming(80'000, 1 << 20, 8, seed + 5));
  suite.back().name = "streaming";
  return suite;
}

} // namespace buscrypt::sim
