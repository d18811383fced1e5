#pragma once
/// \file tamper.hpp
/// Active (integrity) attacks on external memory — the threat the survey's
/// conclusion defers to future work: "thwart attacks based on the
/// modification of the fetched instructions". The canonical trio:
///
///   spoof  — overwrite a line with chosen/garbled ciphertext;
///   splice — relocate a VALID (ciphertext, tag) pair to another address;
///   replay — restore a STALE (ciphertext, tag) pair at its own address.
///
/// One suite runs them against any port guarded by an
/// engine::memory_authenticator, or by none: the integrity EDU at each
/// protection level (bench/tab6_integrity) and the keyslot engine under
/// each auth scheme (tab9, tab12).

#include "edu/integrity_edu.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "sim/dram.hpp"

#include <string>

namespace buscrypt::attack {

/// What the suite saw on line A.
struct tamper_report {
  bool clean_faulted = false;         ///< the untampered round trip faulted or
                                      ///< read back the wrong bytes
  bool spoof_detected = false;        ///< flipped ciphertext bits caught
  bool splice_detected = false;       ///< line B (+ auth material) over line A caught
  bool replay_detected = false;       ///< stale (line, auth material) rollback caught
  bool spoof_corrupted_data = false;  ///< plaintext seen by the CPU changed
  bool replay_restored_stale = false; ///< CPU read the stale value verbatim
};

/// The trio against \p target, a port whose lines are guarded by \p auth
/// (null: unauthenticated) and stored on the raw external part \p chip.
/// Detection = \p auth's faults counter rose across the fetch. Before each
/// scenario the operator re-seals \p auth (a previous one may have left a
/// tree fail-stopped) and writes both lines; the attacker then tampers
/// with line A and with the matching authentication material (mac tag
/// bytes, tree leaf nodes, AREA widened-memory cells), and power-cycles
/// the volatile on-chip caches before the fetch — the strongest Class-II
/// position each scheme claims to resist. A clean round trip runs first.
/// \throws std::invalid_argument unless \p line_a and \p line_b are
///         distinct \p line_bytes-aligned addresses inside \p auth's window.
[[nodiscard]] tamper_report run_tamper_suite(sim::memory_port& target,
                                             engine::memory_authenticator* auth,
                                             sim::dram& chip, addr_t line_a,
                                             addr_t line_b, std::size_t line_bytes);

/// The trio against the integrity EDU at its level, over its 32-byte lines.
[[nodiscard]] tamper_report run_tamper_suite(edu::integrity_edu& target,
                                             sim::dram& chip, addr_t line_a,
                                             addr_t line_b);

/// The trio against the keyslot engine, over the data units of the context
/// holding \p line_a and \p line_b, whatever auth scheme guards it (none,
/// mac, area, hash_tree).
/// \throws std::invalid_argument unless both lines share a context.
[[nodiscard]] tamper_report run_tamper_suite(engine::bus_encryption_engine& target,
                                             sim::dram& chip, addr_t line_a,
                                             addr_t line_b);

/// The update-lifecycle replay classes (the IEEE-1735 lesson: the
/// *protocol*, not the cipher, is what attackers break). Each replay is
/// driven against a fresh update::update_device under \p mode/\p backend
/// and must end with the attack *detected*: the device refuses the
/// attacker's outcome and still boots an exact, authorised image.
///
///   downgrade          — replay a stale (older-version) signed package;
///   partial-flash      — cut power mid-install, then try to boot what the
///                        attacker hopes is a half-programmed slot;
///   interrupted-update — cut power mid-update, flip staged-image bits
///                        while the device is dark, re-offer the package;
///   journal-tamper     — rewrite a journal record while the device is
///                        dark, then let recovery run.
struct update_tamper_report {
  bool downgrade_detected = false;          ///< stale version fail-stopped
  bool partial_flash_detected = false;      ///< no half-programmed boot
  bool interrupted_update_detected = false; ///< planted flips never committed
  bool journal_tamper_detected = false;     ///< MAC chain break fail-stopped
  [[nodiscard]] bool all_detected() const noexcept {
    return downgrade_detected && partial_flash_detected &&
           interrupted_update_detected && journal_tamper_detected;
  }
};

/// Run the four update replays, each on its own device with 8 KiB images.
/// Deterministic in (\p mode, \p backend, \p seed). \p backend must be
/// auth-compatible (AREA needs a block mode).
[[nodiscard]] update_tamper_report
run_update_tamper_suite(engine::auth_mode mode, const std::string& backend,
                        u64 seed);

} // namespace buscrypt::attack
