#include "attack/tamper.hpp"

#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "engine/cipher_backend.hpp"
#include "engine/keyslot_manager.hpp"
#include "keymgmt/session.hpp"
#include "sim/bus.hpp"
#include "sim/fault_injector.hpp"
#include "update/lifetime.hpp"

#include <stdexcept>

namespace buscrypt::attack {

namespace {

bytes pattern_line(std::size_t n, u8 seed) {
  bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<u8>(seed + i * 7);
  return out;
}

} // namespace

tamper_report run_tamper_suite(edu::integrity_edu& target, sim::dram& chip,
                               addr_t line_a, addr_t line_b) {
  constexpr std::size_t lb = edu::integrity_edu::line_bytes;
  // Null at level none: no tags to relocate or roll back.
  const engine::memory_authenticator* auth = target.authenticator();
  if (line_a % lb != 0 || line_b % lb != 0 || line_a == line_b)
    throw std::invalid_argument("tamper suite: need two distinct aligned lines");

  tamper_report report;
  const bytes plain_a = pattern_line(lb, 0x11);
  const bytes plain_b = pattern_line(lb, 0x77);
  bytes buf(lb);

  auto detected_by = [&](auto&& tamper_fn) {
    // (Re)establish good state, apply the tamper, power-cycle the device
    // (clearing the volatile tag cache — attackers pick their moment),
    // fetch, diff the counter.
    (void)target.write(line_a, plain_a);
    (void)target.write(line_b, plain_b);
    tamper_fn();
    target.flush_tag_cache();
    const u64 before = target.tamper_events();
    (void)target.read(line_a, buf);
    return target.tamper_events() > before;
  };

  // --- spoof: flip ciphertext bits on the chip -----------------------------
  report.spoof_detected = detected_by([&] { chip.raw()[line_a + 3] ^= 0x40; });
  report.spoof_corrupted_data = buf != plain_a;

  // --- splice: move B's valid ciphertext AND tag over A's ------------------
  report.splice_detected = detected_by([&] {
    for (std::size_t i = 0; i < lb; ++i)
      chip.raw()[line_a + i] = chip.raw()[line_b + i];
    if (auth == nullptr) return;
    const addr_t ta = auth->tag_addr(line_a);
    const addr_t tb = auth->tag_addr(line_b);
    for (std::size_t i = 0; i < auth->config().tag_bytes; ++i)
      chip.raw()[ta + i] = chip.raw()[tb + i];
  });

  // --- replay: restore a stale (ciphertext, tag) snapshot ------------------
  (void)target.write(line_a, plain_a);
  bytes stale_ct(lb);
  bytes stale_tag(auth != nullptr ? auth->config().tag_bytes : 0);
  chip.read_bytes(line_a, stale_ct);
  if (auth != nullptr) chip.read_bytes(auth->tag_addr(line_a), stale_tag);

  const bytes plain_a2 = pattern_line(lb, 0xCC);
  (void)target.write(line_a, plain_a2); // the value the CPU believes is current

  chip.write_bytes(line_a, stale_ct); // the attacker's rollback
  if (auth != nullptr) chip.write_bytes(auth->tag_addr(line_a), stale_tag);
  target.flush_tag_cache();

  const u64 before = target.tamper_events();
  (void)target.read(line_a, buf);
  report.replay_detected = target.tamper_events() > before;
  report.replay_restored_stale = (buf == plain_a);

  return report;
}

engine_tamper_report run_engine_tamper_suite(engine::bus_encryption_engine& target,
                                             sim::dram& chip, addr_t line_a,
                                             addr_t line_b) {
  const auto ctx = target.context_at(line_a);
  if (ctx == engine::bus_encryption_engine::no_context ||
      ctx != target.context_at(line_b))
    throw std::invalid_argument("engine tamper suite: lines must share a context");
  const std::size_t lb = target.context_key(ctx).data_unit_size;
  if (line_a % lb != 0 || line_b % lb != 0 || line_a == line_b)
    throw std::invalid_argument("engine tamper suite: need two distinct aligned lines");
  engine::memory_authenticator* auth = target.auth_of(ctx);
  if (auth != nullptr && (!auth->covers(line_a) || !auth->covers(line_b)))
    throw std::invalid_argument("engine tamper suite: lines outside the "
                                "authenticated window");

  engine_tamper_report report;
  const bytes plain_a = pattern_line(lb, 0x11);
  const bytes plain_b = pattern_line(lb, 0x77);
  bytes buf(lb);

  const auto faults = [&] { return target.stats().integrity_faults; };
  // (Re)establish good state — a previous scenario may have left the tree
  // fail-stopped, so the operator re-seals before writing — apply the
  // tamper, power-cycle the volatile on-chip caches (attackers pick their
  // moment), fetch, diff the counter.
  const auto detected_by = [&](auto&& tamper_fn) {
    if (auth != nullptr) auth->seal_from_memory();
    (void)target.write(line_a, std::span<const u8>(plain_a));
    (void)target.write(line_b, std::span<const u8>(plain_b));
    tamper_fn();
    if (auth != nullptr) auth->drop_caches();
    const u64 before = faults();
    (void)target.read(line_a, buf);
    return faults() > before;
  };

  // --- clean baseline: the untampered round trip must never fault ----------
  report.clean_faulted = detected_by([] {}) || buf != plain_a;

  // --- spoof: flip ciphertext bits on the chip -----------------------------
  report.spoof_detected = detected_by([&] { chip.raw()[line_a + 3] ^= 0x40; });

  // --- splice: relocate B's line AND its authentication material -----------
  report.splice_detected = detected_by([&] {
    for (std::size_t i = 0; i < lb; ++i) chip.raw()[line_a + i] = chip.raw()[line_b + i];
    if (auth == nullptr) return;
    switch (auth->mode()) {
      case engine::auth_mode::mac: {
        const addr_t ta = auth->tag_addr(line_a);
        const addr_t tb = auth->tag_addr(line_b);
        for (std::size_t i = 0; i < auth->config().tag_bytes; ++i)
          chip.raw()[ta + i] = chip.raw()[tb + i];
        break;
      }
      case engine::auth_mode::hash_tree: {
        const u64 ia = (line_a - auth->config().base) / lb;
        const u64 ib = (line_b - auth->config().base) / lb;
        const addr_t na = auth->node_addr(0, ia);
        const addr_t nb = auth->node_addr(0, ib);
        for (std::size_t i = 0; i < auth->config().tag_bytes; ++i)
          chip.raw()[na + i] = chip.raw()[nb + i];
        break;
      }
      case engine::auth_mode::area:
        *auth->area_sideband(line_a) = *auth->area_sideband(line_b);
        break;
      case engine::auth_mode::none: break;
    }
  });

  // --- replay: roll line A and its authentication material back ------------
  if (auth != nullptr) auth->seal_from_memory(); // recover from the splice run
  (void)target.write(line_a, std::span<const u8>(plain_a));
  bytes stale_ct(lb);
  chip.read_bytes(line_a, stale_ct);
  bytes stale_auth;      // mac tag / whole stored tree / area sideband
  addr_t stale_base = 0; // external address the snapshot restores to
  if (auth != nullptr) switch (auth->mode()) {
      case engine::auth_mode::mac:
        stale_base = auth->tag_addr(line_a);
        stale_auth.resize(auth->config().tag_bytes);
        chip.read_bytes(stale_base, stale_auth);
        break;
      case engine::auth_mode::hash_tree:
        // Roll back every stored node: the strongest replay, beaten only
        // by the on-chip root.
        stale_base = auth->config().tag_base;
        stale_auth.resize(auth->tag_memory_bytes());
        chip.read_bytes(stale_base, stale_auth);
        break;
      case engine::auth_mode::area: stale_auth = *auth->area_sideband(line_a); break;
      case engine::auth_mode::none: break;
    }

  const bytes plain_a2 = pattern_line(lb, 0xCC);
  (void)target.write(line_a, std::span<const u8>(plain_a2)); // the current value

  chip.write_bytes(line_a, stale_ct); // the attacker's rollback
  if (auth != nullptr && !stale_auth.empty()) {
    if (auth->mode() == engine::auth_mode::area)
      *auth->area_sideband(line_a) = stale_auth;
    else chip.write_bytes(stale_base, stale_auth);
  }
  if (auth != nullptr) auth->drop_caches();

  const u64 before = faults();
  (void)target.read(line_a, buf);
  report.replay_detected = faults() > before;

  return report;
}

// --- update-lifecycle replays -------------------------------------------------

namespace {

/// A self-contained crash-safe-update rig: DRAM, fault injector, engine,
/// agent. One per replay so no state leaks between attacks.
struct update_rig {
  static constexpr std::size_t k_image = 8u << 10;
  static constexpr std::size_t k_chunk = 512;

  sim::dram chip;
  sim::external_memory ext;
  sim::fault_injector fi;
  engine::keyslot_manager slots;
  engine::bus_encryption_engine eng;
  update::update_agent agent;

  static update::update_config make_cfg(engine::auth_mode mode,
                                        const std::string& backend, u64 seed) {
    update::update_config c;
    c.slot_base_a = 0;
    c.slot_base_b = k_image;
    c.slot_bytes = k_image;
    c.staging_base = 2 * k_image;
    c.auth = mode;
    c.tag_base_a = 4 * k_image;
    c.tag_base_b = 6 * k_image;
    c.tag_base_staging = 8 * k_image;
    c.backend = backend;
    c.chunk_bytes = k_chunk;
    c.device_key = update::backend_device_key(backend, seed);
    return c;
  }

  update_rig(engine::auth_mode mode, const std::string& backend,
             const crypto::rsa_keypair& keys, u64 seed)
      : chip(128u << 10), ext(chip), fi(ext),
        slots(engine::backend_registry::builtin(), 4), eng(fi, slots),
        agent(eng, fi, keys.priv, make_cfg(mode, backend, seed)) {}
};

} // namespace

update_tamper_report run_update_tamper_suite(engine::auth_mode mode,
                                             const std::string& backend, u64 seed) {
  update_tamper_report rep;
  rng r(seed ^ 0x7A3B3A11ULL);
  const crypto::rsa_keypair keys = crypto::rsa_generate(r, 256);
  keymgmt::insecure_channel net;
  const bytes v1 = rng(seed ^ 0xF1EE7'1A6EULL).random_bytes(update_rig::k_image);
  const bytes v2 = rng(seed ^ 0xF1EE7'1A6FULL).random_bytes(update_rig::k_image);

  // A clean probe run proves the rig commits at all; two journal-cut
  // probes then fix the beat counts at the `installing` and `installed`
  // records, so the interrupting replays can place their cuts inside a
  // chosen phase regardless of how much bus traffic the auth scheme adds
  // (the hash tree's writeback would skew any total-beat fraction).
  {
    update_rig rig(mode, backend, keys, seed);
    rig.agent.provision(v1, 1);
    const update::update_package up =
        update::make_update_package(v2, 2, keys.pub, net, r, update_rig::k_chunk);
    if (rig.agent.apply(up).status != update::update_status::committed)
      return rep; // the rig itself is broken — report nothing detected
  }
  const auto beats_at_journal = [&](u64 record_index) -> u64 {
    update_rig rig(mode, backend, keys, seed);
    rig.agent.provision(v1, 1);
    const update::update_package up =
        update::make_update_package(v2, 2, keys.pub, net, r, update_rig::k_chunk);
    sim::fault_plan plan;
    plan.point = sim::fault_point::journal;
    plan.trigger = record_index;
    rig.fi.arm(plan);
    try {
      (void)rig.agent.apply(up);
    } catch (const sim::power_cut&) {
      return rig.fi.beats();
    }
    return 0;
  };
  const u64 beats_installing = beats_at_journal(1); // end of the verify phase
  const u64 beats_installed = beats_at_journal(2);  // end of the install phase
  if (beats_installing == 0 || beats_installed <= beats_installing)
    return rep;

  // --- downgrade: replay the stale v1 package after the v2 update -------------
  {
    update_rig rig(mode, backend, keys, seed);
    rig.agent.provision(v1, 1);
    const update::update_package up =
        update::make_update_package(v2, 2, keys.pub, net, r, update_rig::k_chunk);
    (void)rig.agent.apply(up);
    const update::update_package stale =
        update::make_update_package(v1, 1, keys.pub, net, r, update_rig::k_chunk);
    const update::update_report dr = rig.agent.apply(stale);
    rep.downgrade_detected =
        dr.status == update::update_status::downgrade_blocked &&
        rig.agent.version() == 2 && rig.agent.active_image() == v2;
  }

  // --- partial flash: cut mid-install, try to boot the half-programmed slot ---
  {
    update_rig rig(mode, backend, keys, seed);
    rig.agent.provision(v1, 1);
    const update::update_package up =
        update::make_update_package(v2, 2, keys.pub, net, r, update_rig::k_chunk);
    sim::fault_plan plan;
    plan.point = sim::fault_point::bus_beat;
    // Halfway through the slot-programming writes of phase 2.
    plan.trigger = beats_installing + (beats_installed - beats_installing) / 2;
    rig.fi.arm(plan);
    bool cut = false;
    try {
      (void)rig.agent.apply(up);
    } catch (const sim::power_cut&) {
      cut = true;
      rig.agent.power_cycle();
      rig.fi.disarm();
    }
    // The attacker offers nothing: boot must roll back to the intact old
    // image, never expose the partial flash.
    const update::update_report rr = rig.agent.recover(nullptr);
    rep.partial_flash_detected =
        cut && rr.status == update::update_status::rolled_back &&
        rig.agent.version() == 1 && rig.agent.active_image() == v1;
  }

  // --- interrupted update: flip staged bits while dark, re-offer the package --
  {
    update_rig rig(mode, backend, keys, seed);
    rig.agent.provision(v1, 1);
    const update::update_package up =
        update::make_update_package(v2, 2, keys.pub, net, r, update_rig::k_chunk);
    sim::fault_plan plan;
    plan.point = sim::fault_point::bus_beat;
    plan.trigger = beats_installing / 2; // inside staging/verify, pre-install
    rig.fi.arm(plan);
    bool cut = false;
    try {
      (void)rig.agent.apply(up);
    } catch (const sim::power_cut&) {
      cut = true;
      rig.agent.power_cycle();
      rig.fi.disarm();
    }
    // While the device is dark the attacker garbles part of the staged
    // image sitting in untrusted DRAM.
    for (std::size_t i = 0; i < 64; ++i)
      rig.chip.raw()[rig.agent.config().staging_base + update_rig::k_image / 2 + i] ^=
          static_cast<u8>(0x80 | i);
    const update::update_report rr = rig.agent.recover(&up);
    // Safe outcomes only: the flips are caught and the update rolls back,
    // or a full restage overwrote them and exactly v2 committed.
    const bytes now = rig.agent.active_image();
    rep.interrupted_update_detected =
        cut && ((rig.agent.version() == 1 && now == v1 &&
                 rr.status != update::update_status::resumed) ||
                (rig.agent.version() == 2 && now == v2));
  }

  // --- journal tamper: rewrite a mid-chain record while dark ------------------
  {
    update_rig rig(mode, backend, keys, seed);
    rig.agent.provision(v1, 1);
    const update::update_package up =
        update::make_update_package(v2, 2, keys.pub, net, r, update_rig::k_chunk);
    (void)rig.agent.apply(up);
    rig.agent.power_cycle();
    // Flip one byte of the `staged` record (index 1 of 5): the MAC chain
    // breaks in the middle — unambiguous tampering, not a torn tail.
    rig.agent.journal().raw()[update::update_journal::k_record_bytes + 5] ^= 0x01;
    const update::update_report rr = rig.agent.recover(nullptr);
    rep.journal_tamper_detected =
        rr.status == update::update_status::journal_tampered &&
        rig.agent.version() == 2 && rig.agent.active_image() == v2;
  }

  return rep;
}

} // namespace buscrypt::attack
