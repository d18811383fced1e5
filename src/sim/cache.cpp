#include "sim/cache.hpp"

#include "common/bitops.hpp"
#include "sim/granule.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::sim {

cache::cache(const cache_config& cfg, memory_port& lower)
    : cfg_(cfg), lower_(&lower) {
  if (!is_pow2(cfg.line_size) || cfg.line_size < 8)
    throw std::invalid_argument("cache: line_size must be a power of two >= 8");
  if (cfg.ways == 0 || cfg.size % (cfg.line_size * cfg.ways) != 0)
    throw std::invalid_argument("cache: size must be a multiple of line_size*ways");
  n_sets_ = cfg.size / (cfg.line_size * cfg.ways);
  if (!is_pow2(n_sets_))
    throw std::invalid_argument("cache: set count must be a power of two");
  lines_.resize(n_sets_ * cfg.ways);
  for (auto& l : lines_) l.data.resize(cfg.line_size, 0);
}

std::size_t cache::set_index(addr_t line_addr) const noexcept {
  return static_cast<std::size_t>((line_addr / cfg_.line_size) & (n_sets_ - 1));
}

std::size_t cache::find_line(addr_t line_addr) const noexcept {
  const std::size_t base = set_index(line_addr) * cfg_.ways;
  for (std::size_t i = base; i < base + cfg_.ways; ++i)
    if (lines_[i].valid && lines_[i].tag == line_addr) return i;
  return lines_.size();
}

bool cache::contains(addr_t addr) const noexcept {
  return find_line(cover_of(addr, 1, cfg_.line_size).base) != lines_.size();
}

cache::locate_result cache::locate(addr_t line_addr, bool for_write) {
  ++tick_;
  if (const std::size_t hit = find_line(line_addr); hit != lines_.size()) {
    ++stats_.hits;
    lines_[hit].last_used = tick_;
    return {&lines_[hit], 0};
  }

  // Miss: pick a victim — first invalid way, else true LRU.
  const std::size_t base = set_index(line_addr) * cfg_.ways;
  ++stats_.misses;
  line* victim = &lines_[base];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    line& l = lines_[base + w];
    if (!l.valid) {
      victim = &l;
      break;
    }
    if (l.last_used < victim->last_used) victim = &l;
  }

  cycles spent = 0;
  if (victim->valid && victim->dirty) {
    // Dirty miss: issue the evict/fill pair as one transaction batch so a
    // lower level with real concurrency (multi-bank DRAM, keystream
    // parallel to the fetch) can overlap them. Functional order is
    // preserved — the writeback drains victim->data before the fill
    // refills it.
    ++stats_.evictions;
    ++stats_.writebacks;
    mem_txn pair[2] = {mem_txn::write_of(victim->tag, victim->data),
                       mem_txn::read_of(line_addr, victim->data)};
    lower_->submit(pair);
    spent += lower_->drain();
  } else {
    if (victim->valid) ++stats_.evictions;
    spent += lower_->read(line_addr, victim->data);
  }
  victim->valid = true;
  victim->dirty = for_write && cfg_.write_back;
  victim->tag = line_addr;
  victim->last_used = tick_;
  return {victim, spent};
}

cycles cache::read(addr_t addr, std::span<u8> out) {
  cycles total = 0;
  walk_granules(
      addr, out.size(), cfg_.line_size,
      [&](addr_t line_addr, std::size_t offset, std::size_t n, std::size_t done) {
        ++stats_.accesses;
        auto [entry, extra] = locate(line_addr, /*for_write=*/false);
        for (std::size_t i = 0; i < n; ++i) out[done + i] = entry->data[offset + i];
        stats_.stall_cycles += extra;
        total += cfg_.hit_latency + extra;
      });
  return total;
}

cycles cache::write(addr_t addr, std::span<const u8> in) {
  cycles total = 0;
  walk_granules(
      addr, in.size(), cfg_.line_size,
      [&](addr_t line_addr, std::size_t offset, std::size_t n, std::size_t done) {
        ++stats_.accesses;
        if (cfg_.write_back) {
          auto [entry, extra] = locate(line_addr, /*for_write=*/true);
          for (std::size_t i = 0; i < n; ++i) entry->data[offset + i] = in[done + i];
          entry->dirty = true;
          stats_.stall_cycles += extra;
          total += cfg_.hit_latency + extra;
          return;
        }
        // Write-through: update the line if resident, always write below.
        if (const std::size_t hit = find_line(line_addr); hit != lines_.size()) {
          line& l = lines_[hit];
          for (std::size_t i = 0; i < n; ++i) l.data[offset + i] = in[done + i];
          l.last_used = ++tick_;
          ++stats_.hits;
        } else {
          ++stats_.misses;
        }

        ++stats_.bypass_writes;
        const cycles below = lower_->write(line_addr + offset, in.subspan(done, n));
        stats_.stall_cycles += below;
        total += cfg_.hit_latency + below;
      });
  return total;
}

cycles cache::flush() {
  // All dirty lines leave as one batch: the drain of an entire cache is
  // the throughput-bound case the transaction pipeline exists for.
  std::vector<mem_txn> writebacks;
  for (auto& l : lines_) {
    if (l.valid && l.dirty) {
      writebacks.push_back(mem_txn::write_of(l.tag, l.data));
      ++stats_.writebacks;
      l.dirty = false;
    }
  }
  if (writebacks.empty()) return 0;
  lower_->submit(writebacks);
  return lower_->drain();
}

} // namespace buscrypt::sim
