#pragma once
/// \file churn.hpp
/// Keyslot churn at scale: a deterministic Zipf-distributed context storm
/// against one slot pool, the traffic shape Linux's blk-crypto keyslot
/// manager was built for — far more encryption contexts than hardware
/// slots, popularity heavily skewed toward a hot head. The generator
/// draws context ids rank-by-popularity (P(r) proportional to 1/(r+1)^s),
/// the runner replays the storm through a keyslot_manager with a bounded
/// set of in-flight leases, and the result quantifies what the eviction
/// policy bought: warm-hit rate, demand reprograms and their stall
/// cycles, software fallbacks when the pool pins out, and bytes/cycle.
///
/// Everything is seed-derived and thread-free, so a churn cell is a pure
/// function of its config — the same determinism contract as the fleet's
/// SoC cells, proved by running the same cells serially and on the pool.

#include "common/rng.hpp"
#include "common/types.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "engine/keyslot_manager.hpp"

#include <string>
#include <vector>

namespace buscrypt::engine {

/// Inverse-CDF sampler over ranks 0..n-1 with P(r) ~ 1/(r+1)^s. One
/// cumulative-weight table, one u64 draw and one binary search per
/// sample; identical draw sequences for identical (n, s, seed).
class zipf_sampler {
 public:
  /// \throws std::invalid_argument for n == 0 or s < 0.
  zipf_sampler(std::size_t n, double s, u64 seed);

  /// Next rank (0 = most popular).
  [[nodiscard]] std::size_t next();

  [[nodiscard]] std::size_t size() const noexcept { return cum_.size(); }

 private:
  std::vector<double> cum_; ///< cumulative weights, cum_.back() = total
  rng rng_;
};

/// One churn cell: a context storm against one pool configuration.
struct churn_config {
  std::size_t contexts = 100'000; ///< distinct encryption contexts (Zipf ranks)
  std::size_t ops = 200'000;      ///< acquire/transform/release operations
  double zipf_s = 1.0;            ///< skew; 0 = uniform, >1 = hot head
  unsigned slots = 8;             ///< hardware pool size
  slot_policy policy = slot_policy::lru;
  /// Leases held concurrently (the request window). in_flight == slots
  /// models a saturated pool where misses pin out and fall back;
  /// in_flight < slots isolates pure eviction-policy behaviour.
  unsigned in_flight = 4;
  std::string backend = "aes-ctr"; ///< registry name for every context
  u64 seed = 0x5EC5EEDULL;         ///< draws + key material derivation
  static constexpr std::size_t data_unit = 32; ///< bytes transformed per operation
  /// Stall charged per demand program and the software-path cycle
  /// multiplier, as the engine charges them.
  static constexpr cycles slot_program_cycles =
      bus_encryption_engine::slot_program_cycles;
  static constexpr cycles fallback_penalty = bus_encryption_engine::fallback_penalty;

  /// "<policy>/p<slots>/s<skew> c<contexts> seed" — unique per axis point.
  [[nodiscard]] std::string label() const;
};

/// What one churn cell measured. Everything except host_ms is a pure
/// function of the config.
struct churn_result {
  std::string label;
  keyslot_stats slots;     ///< the pool's own telemetry after the storm
  u64 ops = 0;             ///< operations replayed
  u64 fallbacks = 0;       ///< served by a software one-shot cipher
  u64 bytes = 0;           ///< payload bytes transformed
  cycles total_cycles = 0; ///< crypto + stall + fallback cycles
  cycles stall_cycles = 0; ///< demand-program waits (in total_cycles)
  u64 draw_fnv = 0;        ///< FNV-1a over the drawn context-id sequence
  double host_ms = 0.0;    ///< machine-dependent, excluded from sim_equal

  [[nodiscard]] double warm_hit_rate() const noexcept {
    return ops == 0 ? 0.0
                    : static_cast<double>(slots.hits) / static_cast<double>(ops);
  }
  [[nodiscard]] double fallback_rate() const noexcept {
    return ops == 0 ? 0.0
                    : static_cast<double>(fallbacks) / static_cast<double>(ops);
  }
  [[nodiscard]] double bytes_per_cycle() const noexcept {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(bytes) /
                                   static_cast<double>(total_cycles);
  }
  /// Mean programmed-slot count observed across the storm's acquires.
  [[nodiscard]] double mean_occupancy() const noexcept {
    return slots.acquires == 0 ? 0.0
                               : static_cast<double>(slots.occupancy_acc) /
                                     static_cast<double>(slots.acquires);
  }

  /// Deterministic-state equality (everything but host_ms) — the relation
  /// the fleet thread-count/shuffle proofs quantify over.
  [[nodiscard]] bool sim_equal(const churn_result& o) const noexcept;
};

/// Replay one churn cell. Per operation: draw a rank, derive that
/// context's key, acquire a slot (holding the last in_flight leases
/// pinned), transform one data unit through the programmed cipher — or
/// the software fallback when the pool denies — and account cycles the
/// way bus_encryption_engine does (demand programs stall, fallbacks pay
/// the penalty multiplier, warm hits ride free).
[[nodiscard]] churn_result run_churn(const churn_config& cfg);

} // namespace buscrypt::engine
