#include "update/lifetime.hpp"

#include "common/fnv.hpp"
#include "engine/cipher_backend.hpp"

#include <algorithm>

namespace buscrypt::update {

bytes backend_device_key(const std::string& backend, u64 seed) {
  const std::size_t len =
      engine::backend_registry::builtin().at(backend).default_key_len();
  rng kr(seed ^ (len == 16 ? 0xDE71CEULL : 0xDE71CEULL + len));
  return kr.random_bytes(len);
}

namespace {

update_config device_config(engine::auth_mode auth, const std::string& backend, u64 seed,
                            std::size_t s, std::size_t chunk_bytes) {
  update_config c;
  c.slot_base_a = 0;
  c.slot_base_b = s;
  c.slot_bytes = s;
  c.staging_base = 2 * s;
  c.auth = auth;
  c.tag_base_a = static_cast<addr_t>(4 * s);
  c.tag_base_b = static_cast<addr_t>(6 * s);
  c.tag_base_staging = static_cast<addr_t>(8 * s);
  c.backend = backend;
  c.chunk_bytes = chunk_bytes;
  c.device_key = backend_device_key(backend, seed);
  return c;
}

} // namespace

bytes device_image(u64 seed, u64 version, std::size_t n) {
  return rng(seed ^ (0xF1EE7'1A6DULL + version)).random_bytes(n);
}

update_device::update_device(engine::auth_mode auth, const std::string& backend,
                             u64 seed, std::size_t image_bytes, std::size_t chunk_bytes,
                             const crypto::rsa_keypair& keys)
    : chip(std::max<std::size_t>(12 * image_bytes, 64u << 10)), ext(chip), fi(ext),
      slots(engine::backend_registry::builtin(), 4), eng(fi, slots),
      agent(eng, fi, keys.priv,
            device_config(auth, backend, seed, image_bytes, chunk_bytes)) {}

lifetime_result run_lifetime(const lifetime_config& cfg) {
  lifetime_result lr;
  rng r(cfg.seed ^ 0x11FE71'3E5ULL);
  const std::size_t s = cfg.image_bytes; // slot == image (model firmware part)

  // --- key install (Fig. 1 provisioning) ------------------------------------
  crypto::rsa_keypair local_keys;
  const crypto::rsa_keypair* keys = cfg.keys;
  if (keys == nullptr) {
    local_keys = crypto::rsa_generate(r, 256);
    keys = &local_keys;
  }

  // --- boot: the SoC with the fault injector under the engine ---------------
  update_device dev(cfg.auth, cfg.backend, cfg.seed, s, cfg.chunk_bytes, *keys);
  update_agent& agent = dev.agent;
  const bytes image_v1 = device_image(cfg.seed, 1, s);
  const bytes image_v2 = device_image(cfg.seed, 2, s);
  agent.provision(image_v1, 1);

  // --- traffic: execute from the active slot for a while ---------------------
  bytes buf(cfg.chunk_bytes);
  for (int i = 0; i < 8; ++i) {
    const addr_t at = agent.slot_base(agent.active_slot()) +
                      r.below(s / cfg.chunk_bytes) * cfg.chunk_bytes;
    lr.traffic_cycles += dev.eng.read(at, buf);
  }

  // --- the update, under the armed fault -------------------------------------
  keymgmt::insecure_channel net;
  const update_package up =
      make_update_package(image_v2, 2, keys->pub, net, r, cfg.chunk_bytes);

  sim::fault_plan plan;
  plan.point = cfg.inject;
  plan.trigger = cfg.trigger;
  plan.seed = cfg.seed ^ 0xB1A57ULL;
  plan.blast_base = agent.config().staging_base;
  plan.blast_len = s;
  plan.stalls = cfg.stalls;
  dev.fi.arm(plan);

  update_report rep;
  try {
    rep = agent.apply(up);
    lr.beats = dev.fi.beats();
  } catch (const sim::power_cut&) {
    lr.cut = true;
    lr.beats = dev.fi.beats();
    agent.power_cycle(); // volatile state gone; NVM + DRAM contents stay
    dev.fi.disarm();     // the grid comes back clean
    rep = agent.recover(cfg.offer_package ? &up : nullptr);
  }
  dev.fi.disarm();

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
  lr.dram_fingerprint = fnv1a(dev.chip.raw());
  return lr;
}

} // namespace buscrypt::update
