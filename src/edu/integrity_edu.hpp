#pragma once
/// \file integrity_edu.hpp
/// The survey's closing "future exploration": "take into account the
/// problem of integrity, to thwart attacks based on the modification of
/// the fetched instructions." This engine extends the stream/OTP
/// confidentiality EDU with per-line authentication, in three levels:
///
///   none          — confidentiality only (baseline; spoof/splice/replay all land)
///   mac           — per-line truncated HMAC over (address || ciphertext),
///                   stored in a tag region of external memory: defeats
///                   spoofing (random/chosen ciphertext injection) and
///                   splicing (relocating a valid line to another address)
///   mac_versioned — the MAC additionally covers an on-chip version
///                   counter bumped on every write: defeats replay
///                   (restoring a stale line+tag pair)
///
/// The costs the later literature (and the survey's own authors' follow-up
/// work) made standard are all modeled: extra bus traffic for tags, MAC
/// unit latency, and on-chip version RAM.
///
/// The engine is an address+version pad (pad block i of a line is
/// E(counter_block(tweak ^ block index, version))) plus an
/// engine::memory_authenticator in its `mac` scheme (unversioned at level
/// mac, none at level none): tags, tag addressing, version RAM, the on-chip
/// tag cache, fault counting and the batch tag protocol all live there,
/// shared with the keyslot engine.
/// What stays here is the pad and the cycle model: the MAC unit's latency
/// exposed past the fetch, the pad overlapped with it, and the batcher
/// lanes the two run on.

#include "crypto/block_cipher.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"
#include "engine/memory_authenticator.hpp"

#include <optional>

namespace buscrypt::edu {

enum class integrity_level { none, mac, mac_versioned };

/// The MAC unit's timing is memory_authenticator's; the tag cache takes
/// the auth_config default.
struct integrity_edu_config {
  std::size_t tag_bytes = 8;
  integrity_level level = integrity_level::mac_versioned;
  addr_t protected_limit = 1 << 21; ///< end of the protected address range
  addr_t tag_base = 6u << 20;       ///< where tags live in external memory
};

/// Authenticating bus-encryption engine (pad cipher + per-line tags).
class integrity_edu final : public edu {
 public:
  /// The unit one tag covers.
  static constexpr std::size_t line_bytes = 32;

  /// \param prf     block cipher for the pad, with a 16-byte block.
  /// \param mac_key key for the line MACs.
  /// \throws std::invalid_argument when \p prf's block is not 16 bytes.
  integrity_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                bytes mac_key, integrity_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override;

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path for line-aligned transactions. Writes pre-encipher
  /// (the pad is address+version-derived and the data is in hand) and
  /// pre-MAC at staging; their ciphertext lines *and* their tag stores
  /// ride the same lower window. Reads queue their line fetch, and the
  /// authenticator queues a tag-line fetch on a tag miss (one per line per
  /// window); the serial MAC unit then verifies each line once its data
  /// and its tag line have both arrived, pipelining against later fetches,
  /// while the precomputable pad overlaps the whole window. Versions are
  /// snapshotted in submission order and tags written earlier in the same
  /// window forward to later reads, so a read never sees a stale or future
  /// tag. Sub-line requests detour in order.
  void submit(std::span<sim::mem_txn> batch) override;

  [[nodiscard]] std::size_t preferred_chunk() const noexcept override {
    return line_bytes;
  }

  /// Tamper events detected so far (tag mismatches on fetch).
  [[nodiscard]] u64 tamper_events() const noexcept {
    return auth_ ? auth_->stats().faults : 0;
  }

  /// External-memory overhead for tags over the protected range.
  [[nodiscard]] std::size_t tag_memory_bytes() const noexcept {
    return auth_ ? auth_->tag_memory_bytes() : 0;
  }

  /// On-chip version RAM (mac_versioned only): 4 bytes per line written.
  [[nodiscard]] std::size_t version_ram_bytes() const noexcept {
    return auth_ ? auth_->version_ram_bytes() : 0;
  }

  /// Drop the (volatile) on-chip tag cache — a power cycle. Version
  /// counters survive: the design keeps them in on-chip NVM.
  void flush_tag_cache() noexcept {
    if (auth_) auth_->drop_caches();
  }

  /// The line MAC engine (tag layout, counters, reseal); null at level none.
  [[nodiscard]] engine::memory_authenticator* authenticator() noexcept {
    return auth_ ? &*auth_ : nullptr;
  }
  [[nodiscard]] const engine::memory_authenticator* authenticator() const noexcept {
    return auth_ ? &*auth_ : nullptr;
  }

  [[nodiscard]] const integrity_edu_config& config() const noexcept { return cfg_; }

 private:
  static constexpr pipeline_model pad_core = aes_pipelined();
  static constexpr u64 tweak = 0x17E617ULL;

  [[nodiscard]] cycles read_line(addr_t line_addr, std::span<u8> out);
  /// Pad \p line in place into its ciphertext, store it and its tag.
  [[nodiscard]] cycles write_line(addr_t line_addr, std::span<u8> line);

  /// XOR the pad of the line at \p line_addr under \p version into \p buf
  /// (one line_bytes line).
  void pad_line(addr_t line_addr, u64 version, std::span<u8> buf) const;
  /// The version a line's pad and tag cover now.
  [[nodiscard]] u64 version_of(addr_t line_addr) const noexcept {
    return auth_ ? auth_->version_of(line_addr) : 0;
  }
  /// The version the next store of a line gets (0 unless versioned).
  [[nodiscard]] u64 next_version(addr_t line_addr) const noexcept {
    return auth_ && auth_->config().versioned ? auth_->version_of(line_addr) + 1 : 0;
  }

  const crypto::block_cipher* prf_;
  integrity_edu_config cfg_;
  std::optional<engine::memory_authenticator> auth_;
};

} // namespace buscrypt::edu
