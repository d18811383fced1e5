#include "edu/engine_edu.hpp"

namespace buscrypt::edu {

engine_edu::engine_edu(sim::memory_port& lower, std::span<const u8> key,
                       engine_edu_config cfg)
    : edu(lower), cfg_(std::move(cfg)),
      slots_(engine::backend_registry::builtin(), cfg_.num_slots, cfg_.policy),
      engine_(lower, slots_),
      name_(std::string(keyslot_name_prefix) + cfg_.backend) {
  default_ctx_ = engine_.create_context(
      {cfg_.backend, bytes(key.begin(), key.end()), cfg_.data_unit_size});
  // Default context covers the full address space; further map_region()
  // calls on engine() override it (later mappings win).
  engine_.map_region(0, static_cast<std::size_t>(-1), default_ctx_);
  if (cfg_.auth.mode != engine::auth_mode::none) {
    if (cfg_.auth.key.empty()) cfg_.auth.key = bytes(key.begin(), key.end());
    engine_.attach_auth(default_ctx_, cfg_.auth);
    name_ += '+';
    name_ += engine::auth_mode_name(cfg_.auth.mode);
  }
}

cycles engine_edu::read(addr_t addr, std::span<u8> out) {
  const cycles t = engine_.read(addr, out);
  sync_stats();
  return t;
}

cycles engine_edu::write(addr_t addr, std::span<const u8> in) {
  const cycles t = engine_.write(addr, in);
  sync_stats();
  return t;
}

void engine_edu::submit(std::span<sim::mem_txn> batch) {
  engine_.submit(batch);
  sync_stats();
}

cycles engine_edu::drain() { return engine_.drain(); }

void engine_edu::install_image(addr_t base, std::span<const u8> plain) {
  engine_.install(base, plain);
  sync_stats();
}

void engine_edu::read_image(addr_t base, std::span<u8> plain_out) {
  engine_.read_plain(base, plain_out);
  sync_stats();
}

void engine_edu::sync_stats() noexcept {
  const engine::engine_stats& es = engine_.stats();
  stats_.reads = es.reads;
  stats_.writes = es.writes;
  stats_.cipher_blocks = es.units;
  stats_.crypto_cycles = es.crypto_cycles;
  stats_.rmw_ops = es.rmw_ops;
  stats_.batches = es.batches;
  stats_.batched_txns = es.batched_txns;
}

} // namespace buscrypt::edu
