#pragma once
/// \file keyslot_manager.hpp
/// A fixed pool of programmable keyslots, after the Linux block-layer
/// inline-encryption keyslot manager. Real bus-encryption hardware holds a
/// small number of key registers; software programs (key, algorithm,
/// data-unit size) tuples into them and requests reference a slot index.
///
/// Lifecycle per slot: EMPTY -> PROGRAMMED (idle) -> IN USE (refcounted)
/// -> idle -> ... -> evicted (policy choice, when another key needs the
/// slot). A slot is only reprogrammed while idle; acquire() on a
/// fully-pinned pool returns no_slot and the caller takes the fallback
/// path. Victim selection is pluggable (see eviction_policy.hpp): LRU is
/// the default and bit-identical to the original hard-wired behaviour;
/// CLOCK, usage-aware and prefetch variants trade telemetry under churn.

#include "common/types.hpp"
#include "engine/cipher_backend.hpp"
#include "engine/eviction_policy.hpp"

#include <deque>
#include <optional>
#include <string>
#include <utility>

namespace buscrypt::engine {

/// Everything the hardware needs to program one slot. Equality is how the
/// manager recognises an already-programmed key (a slot "hit").
struct keyslot_key {
  std::string backend;          ///< registry name, e.g. "aes-ctr"
  bytes key;                    ///< raw key material
  std::size_t data_unit_size = 32; ///< IV granule; DUN = addr / data_unit_size

  bool operator==(const keyslot_key&) const = default;
};

/// Counters the benches and tests read. Two sum rules hold at all times:
///   programs == cold_programs + reprograms + prefetch_programs
///   acquires == hits + cold_programs + reprograms + denials
/// (the property tests enforce both after every operation).
struct keyslot_stats {
  u64 hits = 0;        ///< acquire() found the key already in a slot (warm)
  u64 programs = 0;    ///< a slot was (re)programmed with key material
  u64 cold_programs = 0;     ///< ... of which into an empty slot, on demand
  u64 reprograms = 0;        ///< ... of which displaced another key, on demand
  u64 prefetch_programs = 0; ///< ... of which refilled idle slots (prefetch)
  u64 evictions = 0;   ///< a programmed key was displaced (policy or explicit)
  u64 denials = 0;     ///< acquire() failed: every slot pinned by a user
  u64 acquires = 0;    ///< acquire() calls (hit + demand-program + denial)
  /// Programmed-slot count sampled at each acquire (occupancy_acc /
  /// acquires = mean pool occupancy under the offered traffic).
  u64 occupancy_acc = 0;
};

class keyslot_manager {
 public:
  static constexpr int no_slot = -1;

  /// \param registry backend resolver; referenced, not owned.
  /// \param num_slots hardware slot count (>= 1).
  /// \param policy victim-selection policy (default exact LRU).
  keyslot_manager(const backend_registry& registry, unsigned num_slots,
                  slot_policy policy = slot_policy::lru);

  /// Get a slot programmed with \p k, programming or evicting an idle
  /// slot if needed. Increments the slot's refcount; pair with release().
  /// Returns no_slot when every slot is pinned by in-flight users.
  /// \throws std::out_of_range for an unknown backend,
  ///         std::invalid_argument for a bad key length.
  [[nodiscard]] int acquire(const keyslot_key& k);

  /// Drop one reference. The key stays programmed (warm for reuse) until
  /// eviction displaces it.
  void release(int slot);

  /// Explicitly evict \p k (e.g. session teardown). Returns false when the
  /// key is currently in use or not present.
  bool evict(const keyslot_key& k);

  /// The keyed cipher programmed into \p slot. Slot must be programmed.
  [[nodiscard]] keyed_cipher& keyed(int slot);

  /// The key programmed into \p slot, if any.
  [[nodiscard]] const keyslot_key* key_of(int slot) const;

  [[nodiscard]] unsigned num_slots() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }
  [[nodiscard]] unsigned slots_in_use() const noexcept;
  /// Slots currently holding a programmed key schedule.
  [[nodiscard]] unsigned slots_programmed() const noexcept { return programmed_; }
  [[nodiscard]] slot_policy policy() const noexcept { return policy_->kind(); }
  [[nodiscard]] const keyslot_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  [[nodiscard]] const backend_registry& registry() const noexcept { return *registry_; }

 private:
  struct slot {
    std::optional<keyslot_key> key;       ///< nullopt = EMPTY
    std::unique_ptr<keyed_cipher> cipher; ///< programmed key schedule
    unsigned refcount = 0;
    u64 last_use = 0;                     ///< recency tick
    u64 uses = 0;                         ///< acquires served since programmed
  };

  /// A displaced key worth remembering (prefetch policy): hot enough to
  /// come back. The ring is bounded at num_slots, most recent at the back.
  struct victim_entry {
    keyslot_key key;
    u64 uses = 0;
  };

  /// Refresh views_ and ask the policy for an idle victim; validates the
  /// pick against the pinned-slot invariant.
  [[nodiscard]] int pick_victim();

  /// Program slot \p i with \p k for \p pins holders (demand programs and
  /// prefetch refills). make_keyed runs first: if it throws (unknown
  /// backend, bad key length) the slot keeps its old key, nothing counted.
  void program(std::size_t i, const keyslot_key& k, unsigned pins);

  /// Remember a displaced hot key (prefetch policy only).
  void note_victim(const slot& s);

  /// After a demand program: re-program the most recent remembered hot
  /// key into a cold idle slot, if both exist. At most one refill per
  /// demand program, counted as prefetch_programs (never a stall — the
  /// schedule expands while the bus is idle).
  void maybe_prefetch();

  const backend_registry* registry_;
  std::vector<slot> slots_;
  std::unique_ptr<eviction_policy> policy_;
  std::vector<slot_view> views_; ///< scratch for pick_victim, sized once
  std::deque<victim_entry> victims_; ///< prefetch ring, most recent at back
  keyslot_stats stats_;
  u64 tick_ = 0;
  unsigned programmed_ = 0; ///< slots holding a key (occupancy source)
};

/// RAII acquire/release. Evaluates to the slot index; valid() is false on
/// the fallback path. Movable, so a lease can hold it by value: the
/// moved-from guard releases nothing.
class slot_guard {
 public:
  slot_guard(keyslot_manager& mgr, const keyslot_key& k)
      : mgr_(&mgr), slot_(mgr.acquire(k)) {}
  slot_guard(slot_guard&& o) noexcept
      : mgr_(o.mgr_), slot_(std::exchange(o.slot_, keyslot_manager::no_slot)) {}
  ~slot_guard() {
    if (valid()) mgr_->release(slot_);
  }
  slot_guard(const slot_guard&) = delete;
  slot_guard& operator=(const slot_guard&) = delete;

  [[nodiscard]] bool valid() const noexcept { return slot_ != keyslot_manager::no_slot; }
  [[nodiscard]] int index() const noexcept { return slot_; }
  [[nodiscard]] keyed_cipher& keyed() { return mgr_->keyed(slot_); }

 private:
  keyslot_manager* mgr_;
  int slot_;
};

} // namespace buscrypt::engine
