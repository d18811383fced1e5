#include "attack/tamper.hpp"

#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "keymgmt/session.hpp"
#include "sim/fault_injector.hpp"
#include "update/lifetime.hpp"

#include <optional>
#include <stdexcept>

namespace buscrypt::attack {

namespace {

bytes pattern_line(std::size_t n, u8 seed) {
  bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<u8>(seed + i * 7);
  return out;
}

} // namespace

tamper_report run_tamper_suite(sim::memory_port& target,
                               engine::memory_authenticator* auth, sim::dram& chip,
                               addr_t line_a, addr_t line_b, std::size_t line_bytes) {
  const std::size_t lb = line_bytes;
  if (lb == 0 || line_a % lb != 0 || line_b % lb != 0 || line_a == line_b)
    throw std::invalid_argument("tamper suite: need two distinct aligned lines");
  if (auth != nullptr && (!auth->covers(line_a) || !auth->covers(line_b)))
    throw std::invalid_argument("tamper suite: lines outside the authenticated window");

  tamper_report report;
  const bytes plain_a = pattern_line(lb, 0x11);
  const bytes plain_b = pattern_line(lb, 0x77);
  bytes buf(lb);

  const auto faults = [&] { return auth != nullptr ? auth->stats().faults : u64{0}; };
  // (Re)establish good state — a previous scenario may have left the tree
  // fail-stopped, so the operator re-seals before writing — apply the
  // tamper, power-cycle the volatile on-chip caches (attackers pick their
  // moment), fetch, diff the counter.
  const auto detected_by = [&](auto&& tamper_fn) {
    if (auth != nullptr) auth->seal_from_memory();
    (void)target.write(line_a, plain_a);
    (void)target.write(line_b, plain_b);
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
  report.spoof_corrupted_data = buf != plain_a;

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
  (void)target.write(line_a, plain_a);
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
  (void)target.write(line_a, plain_a2); // the current value

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
  report.replay_restored_stale = buf == plain_a;

  return report;
}

tamper_report run_tamper_suite(edu::integrity_edu& target, sim::dram& chip,
                               addr_t line_a, addr_t line_b) {
  return run_tamper_suite(target, target.authenticator(), chip, line_a, line_b,
                          edu::integrity_edu::line_bytes);
}

tamper_report run_tamper_suite(engine::bus_encryption_engine& target, sim::dram& chip,
                               addr_t line_a, addr_t line_b) {
  const auto ctx = target.context_at(line_a);
  if (ctx == engine::bus_encryption_engine::no_context ||
      ctx != target.context_at(line_b))
    throw std::invalid_argument("tamper suite: lines must share a context");
  return run_tamper_suite(target, target.auth_of(ctx), chip, line_a, line_b,
                          target.context_key(ctx).data_unit_size);
}

// --- update-lifecycle replays -------------------------------------------------

update_tamper_report run_update_tamper_suite(engine::auth_mode mode,
                                             const std::string& backend, u64 seed) {
  constexpr std::size_t k_image = 8u << 10;
  constexpr std::size_t k_chunk = 512;
  update_tamper_report rep;
  rng r(seed ^ 0x7A3B3A11ULL);
  const crypto::rsa_keypair keys = crypto::rsa_generate(r, 256);
  keymgmt::insecure_channel net;
  const bytes v1 = update::device_image(seed, 1, k_image);
  const bytes v2 = update::device_image(seed, 2, k_image);
  // One fresh device per replay, so no state leaks between attacks: it is
  // provisioned with v1 and handed its own v2 package.
  const auto device = [&] {
    return update::update_device(mode, backend, seed, k_image, k_chunk, keys);
  };
  const auto provision = [&](update::update_device& dev) {
    dev.agent.provision(v1, 1);
    return update::make_update_package(v2, 2, keys.pub, net, r, k_chunk);
  };
  // Apply \p up with a power cut armed at \p point's \p trigger; a cut
  // power-cycles the device and the grid comes back clean. The beats the
  // injector had counted when the cut fired; none without a cut.
  const auto cut_at = [](update::update_device& dev, const update::update_package& up,
                         sim::fault_point point, u64 trigger) -> std::optional<u64> {
    sim::fault_plan plan;
    plan.point = point;
    plan.trigger = trigger;
    dev.fi.arm(plan);
    try {
      (void)dev.agent.apply(up);
    } catch (const sim::power_cut&) {
      const u64 beats = dev.fi.beats();
      dev.agent.power_cycle();
      dev.fi.disarm();
      return beats;
    }
    return std::nullopt;
  };

  // A clean probe run proves the device commits at all; two journal-cut
  // probes then fix the beat counts at the `installing` and `installed`
  // records, so the interrupting replays can place their cuts inside a
  // chosen phase regardless of how much bus traffic the auth scheme adds
  // (the hash tree's writeback would skew any total-beat fraction).
  {
    update::update_device dev = device();
    const update::update_package up = provision(dev);
    if (dev.agent.apply(up).status != update::update_status::committed)
      return rep; // the device itself is broken — report nothing detected
  }
  const auto beats_at_journal = [&](u64 record_index) {
    update::update_device dev = device();
    const update::update_package up = provision(dev);
    return cut_at(dev, up, sim::fault_point::journal, record_index).value_or(0);
  };
  const u64 beats_installing = beats_at_journal(1); // end of the verify phase
  const u64 beats_installed = beats_at_journal(2);  // end of the install phase
  if (beats_installing == 0 || beats_installed <= beats_installing)
    return rep;

  // --- downgrade: replay the stale v1 package after the v2 update -------------
  {
    update::update_device dev = device();
    const update::update_package up = provision(dev);
    (void)dev.agent.apply(up);
    const update::update_package stale =
        update::make_update_package(v1, 1, keys.pub, net, r, k_chunk);
    const update::update_report dr = dev.agent.apply(stale);
    rep.downgrade_detected = dr.status == update::update_status::downgrade_blocked &&
                             dev.agent.version() == 2 && dev.agent.active_image() == v2;
  }

  // --- partial flash: cut mid-install, try to boot the half-programmed slot ---
  {
    update::update_device dev = device();
    const update::update_package up = provision(dev);
    // Halfway through the slot-programming writes of phase 2.
    const bool cut = cut_at(dev, up, sim::fault_point::bus_beat,
                            beats_installing + (beats_installed - beats_installing) / 2)
                         .has_value();
    // The attacker offers nothing: boot must roll back to the intact old
    // image, never expose the partial flash.
    const update::update_report rr = dev.agent.recover(nullptr);
    rep.partial_flash_detected = cut &&
                                 rr.status == update::update_status::rolled_back &&
                                 dev.agent.version() == 1 &&
                                 dev.agent.active_image() == v1;
  }

  // --- interrupted update: flip staged bits while dark, re-offer the package --
  {
    update::update_device dev = device();
    const update::update_package up = provision(dev);
    // Inside staging/verify, pre-install.
    const bool cut =
        cut_at(dev, up, sim::fault_point::bus_beat, beats_installing / 2).has_value();
    // While the device is dark the attacker garbles part of the staged
    // image sitting in untrusted DRAM.
    for (std::size_t i = 0; i < 64; ++i)
      dev.chip.raw()[dev.agent.config().staging_base + k_image / 2 + i] ^=
          static_cast<u8>(0x80 | i);
    const update::update_report rr = dev.agent.recover(&up);
    // Safe outcomes only: the flips are caught and the update rolls back,
    // or a full restage overwrote them and exactly v2 committed.
    const bytes now = dev.agent.active_image();
    rep.interrupted_update_detected =
        cut && ((dev.agent.version() == 1 && now == v1 &&
                 rr.status != update::update_status::resumed) ||
                (dev.agent.version() == 2 && now == v2));
  }

  // --- journal tamper: rewrite a mid-chain record while dark ------------------
  {
    update::update_device dev = device();
    const update::update_package up = provision(dev);
    (void)dev.agent.apply(up);
    dev.agent.power_cycle();
    // Flip one byte of the `staged` record (index 1 of 5): the MAC chain
    // breaks in the middle — unambiguous tampering, not a torn tail.
    dev.agent.journal().raw()[update::update_journal::k_record_bytes + 5] ^= 0x01;
    const update::update_report rr = dev.agent.recover(nullptr);
    rep.journal_tamper_detected =
        rr.status == update::update_status::journal_tampered &&
        dev.agent.version() == 2 && dev.agent.active_image() == v2;
  }

  return rep;
}

} // namespace buscrypt::attack
