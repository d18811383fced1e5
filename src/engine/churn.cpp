#include "engine/churn.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <stdexcept>

namespace buscrypt::engine {

zipf_sampler::zipf_sampler(std::size_t n, double s, u64 seed) : rng_(seed) {
  if (n == 0) throw std::invalid_argument("zipf_sampler: need at least one rank");
  if (s < 0.0) throw std::invalid_argument("zipf_sampler: negative skew");
  cum_.resize(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r + 1), -s);
    cum_[r] = total;
  }
}

std::size_t zipf_sampler::next() {
  // 53 uniform bits -> [0, 1) -> a point on the cumulative weight line.
  const double u = static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53;
  const double target = u * cum_.back();
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), target);
  const std::size_t r = static_cast<std::size_t>(it - cum_.begin());
  return r < cum_.size() ? r : cum_.size() - 1;
}

std::string churn_config::label() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s/p%u/z%.2f/c%zu",
                std::string(slot_policy_name(policy)).c_str(), slots, zipf_s,
                contexts);
  return buf;
}

bool churn_result::sim_equal(const churn_result& o) const noexcept {
  return label == o.label && ops == o.ops && fallbacks == o.fallbacks &&
         bytes == o.bytes && total_cycles == o.total_cycles &&
         stall_cycles == o.stall_cycles && draw_fnv == o.draw_fnv &&
         slots.hits == o.slots.hits && slots.programs == o.slots.programs &&
         slots.cold_programs == o.slots.cold_programs &&
         slots.reprograms == o.slots.reprograms &&
         slots.prefetch_programs == o.slots.prefetch_programs &&
         slots.evictions == o.slots.evictions && slots.denials == o.slots.denials &&
         slots.acquires == o.slots.acquires &&
         slots.occupancy_acc == o.slots.occupancy_acc;
}

namespace {

void fnv_accumulate(u64& h, u64 v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x00000100000001B3ULL;
  }
}

} // namespace

churn_result run_churn(const churn_config& cfg) {
  const auto t0 = std::chrono::steady_clock::now();

  const backend_registry& registry = backend_registry::builtin();
  const cipher_backend& backend = registry.at(cfg.backend);
  const std::size_t key_len = backend.default_key_len();

  keyslot_manager mgr(registry, cfg.slots, cfg.policy);
  zipf_sampler draws(cfg.contexts, cfg.zipf_s, cfg.seed ^ 0x21BF5EEDULL);

  churn_result r;
  r.label = cfg.label();
  r.draw_fnv = 0xCBF29CE484222325ULL;

  // One data unit of seed-derived payload, transformed in place each op
  // so every cell does real crypto work per acquire.
  rng payload_rng(cfg.seed ^ 0xDA7AULL);
  bytes unit = payload_rng.random_bytes(cfg.data_unit);
  bytes out(cfg.data_unit);

  std::deque<int> held; // the in_flight most recent leases, oldest first

  for (std::size_t op = 0; op < cfg.ops; ++op) {
    const std::size_t id = draws.next();
    fnv_accumulate(r.draw_fnv, static_cast<u64>(id));

    rng key_rng(cfg.seed ^ (0x6B5EEDULL + static_cast<u64>(id)));
    keyslot_key k{cfg.backend, key_rng.random_bytes(key_len), cfg.data_unit};

    const keyslot_stats& ks = mgr.stats();
    const u64 demand_before = ks.cold_programs + ks.reprograms;
    const int slot = mgr.acquire(k);

    cycles cost = 0;
    if (slot == keyslot_manager::no_slot) {
      // Pool pinned out: software one-shot cipher, penalty multiplier —
      // the blk-crypto-fallback path, costed as the engine costs it.
      ++r.fallbacks;
      const std::unique_ptr<keyed_cipher> sw = backend.make_keyed(k.key);
      sw->encrypt_unit(static_cast<u64>(id), unit, out);
      cost = sw->unit_cost(cfg.data_unit, true) * cfg.fallback_penalty;
    } else {
      if (ks.cold_programs + ks.reprograms != demand_before) {
        cost += cfg.slot_program_cycles;
        r.stall_cycles += cfg.slot_program_cycles;
      }
      keyed_cipher& kc = mgr.keyed(slot);
      kc.encrypt_unit(static_cast<u64>(id), unit, out);
      cost += kc.unit_cost(cfg.data_unit, true);
      held.push_back(slot);
      while (held.size() > cfg.in_flight) {
        mgr.release(held.front());
        held.pop_front();
      }
    }
    r.total_cycles += cost;
    r.bytes += cfg.data_unit;
    ++r.ops;
  }

  for (const int slot : held) mgr.release(slot);
  r.slots = mgr.stats();
  r.host_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

} // namespace buscrypt::engine
