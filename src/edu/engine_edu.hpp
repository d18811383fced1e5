#pragma once
/// \file engine_edu.hpp
/// Adapter presenting the keyslot-based engine::bus_encryption_engine as
/// an EDU, so the unified engine slots into the same cache -> EDU ->
/// bus -> DRAM topology as every surveyed design and can be swept by the
/// benches alongside them. This replaces ad-hoc per-EDU cipher plumbing
/// with backend-by-name configuration: the same adapter runs AES-CTR,
/// 3DES-CBC or an RC4 keystream depending on one config string.

#include "edu/edu.hpp"
#include "edu/names.hpp"
#include "engine/bus_encryption_engine.hpp"

#include <string>

namespace buscrypt::edu {

struct engine_edu_config {
  std::string backend{keyslot_default_backend}; ///< engine::backend_registry name
  std::size_t data_unit_size = 32; ///< typically the cache line size
  unsigned num_slots = 4;          ///< hardware keyslot pool size
  /// Victim selection for the slot pool. Policies never change what the
  /// datapath produces — only hit/reprogram telemetry and timing.
  engine::slot_policy policy = engine::slot_policy::lru;
  /// Authentication of the default context (auth_mode::none attaches no
  /// authenticator). The window/tag geometry is the caller's; an empty
  /// key derives from the device key.
  engine::auth_config auth{};
};

/// EDU wrapping one bus_encryption_engine with a private slot pool. The
/// whole address space below the cache is mapped to a single context keyed
/// with the device key; callers may carve further contexts/regions through
/// engine().
class engine_edu final : public edu {
 public:
  /// \param key device key programmed into the default context.
  engine_edu(sim::memory_port& lower, std::span<const u8> key, engine_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Batches go straight to the engine's pipelined native path (slots
  /// programmed once per batch, crypto overlapped with the bus schedule).
  void submit(std::span<sim::mem_txn> batch) override;
  [[nodiscard]] cycles drain() override;

  void install_image(addr_t base, std::span<const u8> plain) override;
  void read_image(addr_t base, std::span<u8> plain_out) override;

  [[nodiscard]] std::size_t preferred_chunk() const noexcept override {
    return cfg_.data_unit_size;
  }

  [[nodiscard]] engine::bus_encryption_engine& engine() noexcept { return engine_; }
  [[nodiscard]] engine::keyslot_manager& slots() noexcept { return slots_; }
  [[nodiscard]] const engine_edu_config& config() const noexcept { return cfg_; }
  /// The default context's authenticator, or nullptr when auth is off.
  [[nodiscard]] engine::memory_authenticator* auth() noexcept {
    return engine_.auth_of(default_ctx_);
  }

 private:
  void sync_stats() noexcept;

  engine_edu_config cfg_;
  engine::keyslot_manager slots_;
  engine::bus_encryption_engine engine_;
  engine::bus_encryption_engine::context_id default_ctx_ = 0;
  std::string name_;
};

} // namespace buscrypt::edu
