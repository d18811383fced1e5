#include "update/lifetime.hpp"

#include "common/fnv.hpp"
#include "engine/cipher_backend.hpp"
#include "engine/keyslot_manager.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"

#include <algorithm>

namespace buscrypt::update {

bytes backend_device_key(const std::string& backend, u64 seed) {
  const std::size_t len =
      engine::backend_registry::builtin().at(backend).default_key_len();
  rng kr(seed ^ (len == 16 ? 0xDE71CEULL : 0xDE71CEULL + len));
  return kr.random_bytes(len);
}

lifetime_result run_lifetime(const lifetime_config& cfg) {
  lifetime_result lr;
  rng r(cfg.seed ^ 0x11FE71'3E5ULL);

  // --- geometry: everything scales off the slot size ------------------------
  const std::size_t s = cfg.image_bytes; // slot == image (model firmware part)
  update_config ucfg;
  ucfg.slot_base_a = 0;
  ucfg.slot_base_b = s;
  ucfg.slot_bytes = s;
  ucfg.staging_base = 2 * s;
  ucfg.auth = cfg.auth;
  ucfg.tag_base_a = static_cast<addr_t>(4 * s);
  ucfg.tag_base_b = static_cast<addr_t>(6 * s);
  ucfg.tag_base_staging = static_cast<addr_t>(8 * s);
  ucfg.backend = cfg.backend;
  ucfg.data_unit = cfg.data_unit;
  ucfg.chunk_bytes = cfg.chunk_bytes;
  ucfg.device_key = backend_device_key(cfg.backend, cfg.seed);

  // --- boot: the SoC with the fault injector under the engine ---------------
  sim::dram chip(12 * s < (64u << 10) ? (64u << 10) : 12 * s);
  sim::external_memory ext(chip);
  sim::fault_injector fi(ext);
  engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
  engine::bus_encryption_engine eng(fi, slots);

  // --- key install (Fig. 1 provisioning) ------------------------------------
  crypto::rsa_keypair local_keys;
  const crypto::rsa_keypair* keys = cfg.keys;
  if (keys == nullptr) {
    local_keys = crypto::rsa_generate(r, 256);
    keys = &local_keys;
  }
  update_agent agent(eng, fi, keys->priv, ucfg);

  const bytes image_v1 = rng(cfg.seed ^ 0xF1EE7'1A6EULL).random_bytes(s);
  const bytes image_v2 = rng(cfg.seed ^ 0xF1EE7'1A6FULL).random_bytes(s);
  agent.provision(image_v1, 1);

  // --- traffic: execute from the active slot for a while ---------------------
  bytes buf(cfg.chunk_bytes);
  for (int i = 0; i < 8; ++i) {
    const addr_t at = agent.slot_base(agent.active_slot()) +
                      r.below(s / cfg.chunk_bytes) * cfg.chunk_bytes;
    lr.traffic_cycles += eng.read(at, buf);
  }

  // --- the update, under the armed fault -------------------------------------
  keymgmt::insecure_channel net;
  const update_package up =
      make_update_package(image_v2, 2, keys->pub, net, r, cfg.chunk_bytes);

  sim::fault_plan plan;
  plan.point = cfg.inject;
  plan.trigger = cfg.trigger;
  plan.seed = cfg.seed ^ 0xB1A57ULL;
  plan.blast_base = ucfg.staging_base;
  plan.blast_len = s;
  plan.stalls = cfg.stalls;
  fi.arm(plan);

  update_report rep;
  try {
    rep = agent.apply(up);
    lr.beats = fi.beats();
  } catch (const sim::power_cut&) {
    lr.cut = true;
    lr.beats = fi.beats();
    agent.power_cycle(); // volatile state gone; NVM + DRAM contents stay
    fi.disarm();         // the grid comes back clean
    rep = agent.recover(cfg.offer_package ? &up : nullptr);
  }
  fi.disarm();

  lr.status = rep.status;
  lr.retries = rep.retries;
  lr.update_cycles = rep.verify_cycles + rep.install_cycles;

  // --- audit: exactly-old or exactly-new, nothing else ------------------------
  const bytes now = agent.active_image();
  lr.committed_new = agent.version() == 2 && now == image_v2;
  lr.old_intact = agent.version() == 1 && now == image_v1;
  lr.torn = !lr.committed_new && !lr.old_intact;
  lr.active_slot = agent.active_slot();
  lr.version = agent.version();

  // --- downgrade probe: replay a stale version, expect fail-stop --------------
  const update_package stale =
      make_update_package(image_v1, 1, keys->pub, net, r, cfg.chunk_bytes);
  const update_report drep = agent.apply(stale);
  const u64 v_after = agent.version();
  lr.downgrade_blocked = drep.status == update_status::downgrade_blocked &&
                         v_after == lr.version && agent.active_image() == now;

  // --- teardown ---------------------------------------------------------------
  lr.dram_fingerprint = fnv1a(chip.raw());
  return lr;
}

} // namespace buscrypt::update
