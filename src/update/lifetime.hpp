#pragma once
/// \file lifetime.hpp
/// One complete device lifetime — boot → provision → traffic → in-field
/// update under an armed fault → power-cycle/recover → audit → teardown —
/// as a single deterministic, seeded function. This is the cell the fleet
/// re-drives thousands of times (the million-user-day axis) and the cell
/// tab13's recovery matrix sweeps: every run must end with the device
/// holding *exactly* the old image or *exactly* the new one, never a torn
/// mix, and never a downgrade.

#include "engine/keyslot_manager.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"
#include "sim/fault_injector.hpp"
#include "update/update_agent.hpp"

namespace buscrypt::update {

/// Everything one lifetime depends on. Same config -> bit-identical result.
struct lifetime_config {
  u64 seed = 1;
  engine::auth_mode auth = engine::auth_mode::none;
  std::string backend = "aes-ctr";
  /// Armed fault for the update leg (none = clean update).
  sim::fault_point inject = sim::fault_point::none;
  u64 trigger = 0;       ///< in the point's native unit (beats/flushes/records)
  unsigned stalls = 0;   ///< bus_stall only
  /// Geometry — small defaults keep a fleet cell cheap.
  std::size_t image_bytes = 8u << 10;
  std::size_t chunk_bytes = 512;
  static constexpr std::size_t data_unit = 32; ///< update_config's default
  /// Whether the updater daemon re-offers the package after the power
  /// cycle (resume path) or not (rollback path).
  bool offer_package = true;
  /// Amortise RSA keygen across cells (not owned; nullptr = generate).
  const crypto::rsa_keypair* keys = nullptr;
};

/// What the lifetime concluded — the fields the fleet folds into its
/// determinism proofs and tab13 folds into the recovery matrix.
struct lifetime_result {
  update_status status = update_status::none_pending;
  bool cut = false;               ///< a power_cut fired mid-update
  bool committed_new = false;     ///< device ended on the new image
  bool old_intact = false;        ///< device ended on the old image
  bool torn = false;              ///< neither — the crash-safety failure
  bool downgrade_blocked = true;  ///< a stale-version replay fail-stopped
  unsigned active_slot = 0;
  u64 version = 0;
  unsigned retries = 0;
  u64 beats = 0;                  ///< injector beats over the update leg
  cycles traffic_cycles = 0;      ///< pre-update execution traffic
  cycles update_cycles = 0;       ///< verify + install + backoff
  u64 dram_fingerprint = 0;       ///< FNV-1a over external memory
};

/// `recovered-or-rolled-back, zero torn images` in one predicate.
[[nodiscard]] constexpr bool lifetime_safe(const lifetime_result& lr) noexcept {
  return !lr.torn && (lr.committed_new || lr.old_intact) && lr.downgrade_blocked;
}

/// Drive one lifetime. Deterministic in \p cfg; never throws power_cut
/// (cuts are caught, power-cycled and recovered inside).
[[nodiscard]] lifetime_result run_lifetime(const lifetime_config& cfg);

/// A seeded device key of \p backend's default_key_len() —
/// shared by the lifetime runner, the update tamper suite and the tests.
[[nodiscard]] bytes backend_device_key(const std::string& backend, u64 seed);

/// The seeded firmware image \p version (1 or 2) of \p n bytes that a
/// device seeded \p seed is provisioned with (1) or updated to (2).
[[nodiscard]] bytes device_image(u64 seed, u64 version, std::size_t n);

/// The crash-safe update device every lifetime episode and every update
/// replay runs on: DRAM of 12 images (at least 64 KiB), the fault injector
/// between it and the keyslot engine (a 4-slot pool), and the update agent
/// over A/B slots of one image each at 0 and image_bytes, staging at
/// 2 x image_bytes and the three tag regions at 4, 6 and 8 x image_bytes,
/// keyed by backend_device_key(\p backend, \p seed). Its parts refer to
/// one another, so it is built in place and never copied or moved.
struct update_device {
  update_device(engine::auth_mode auth, const std::string& backend, u64 seed,
                std::size_t image_bytes, std::size_t chunk_bytes,
                const crypto::rsa_keypair& keys);
  update_device(const update_device&) = delete;
  update_device& operator=(const update_device&) = delete;

  sim::dram chip;
  sim::external_memory ext;
  sim::fault_injector fi;
  engine::keyslot_manager slots;
  engine::bus_encryption_engine eng;
  update_agent agent;
};

} // namespace buscrypt::update
