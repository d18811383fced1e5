#pragma once
/// \file gi_edu.hpp
/// The General Instrument patent engine (Fig. 5): memory encrypted with
/// 3-DES in CBC, plus "the possibility to authenticate the data coming
/// from external memory thanks to a keyed hash algorithm". The survey's
/// verdict — "cipher block chaining technique is very robust but implies
/// unacceptable CPU performance degradation for random accesses" — falls
/// out of the model: CBC chains span whole segments, and the keyed hash
/// forces every random touch to fetch and verify its entire segment.

#include "crypto/block_cipher.hpp"
#include "crypto/mac.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

#include <array>
#include <unordered_map>
#include <utility>

namespace buscrypt::edu {

struct gi_edu_config {
  std::size_t segment_bytes = 1024; ///< one CBC chain + one MAC per segment
  bool authenticate = true;         ///< verify the keyed hash on fetch
  unsigned verified_cache_entries = 4; ///< recently-verified segments
};

/// Whole-segment CBC + keyed-hash EDU. A segment's IV is
/// E_K(counter_block(iv_tweak ^ segment base, 0)).
class gi_edu final : public edu {
 public:
  /// \param cipher the 3-DES core; \param mac_key keyed-hash key.
  gi_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
         bytes mac_key, gi_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "GI-3DES-CBC+MAC";
  }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path for reads: every touched segment's whole-chain
  /// fetch rides one lower window (multi-bank overlap across segments),
  /// with the pipelined 3-DES decipher and the keyed-hash verification
  /// chained on the serial units after each segment's own data arrival —
  /// the MAC unit streams one segment while the bus fetches the next.
  /// The recently-verified window advances in submission order at staging,
  /// so hash charges match scalar issue exactly. Writes are whole-segment
  /// read-modify-write (ciphertext depends on fetched data), so they
  /// detour through the scalar path in order.
  void submit(std::span<sim::mem_txn> batch) override;

  /// Count of authentication failures detected (tampering).
  [[nodiscard]] u64 auth_failures() const noexcept { return auth_failures_; }

  /// Segment-sized installs avoid spurious read-modify-writes.
  [[nodiscard]] std::size_t preferred_chunk() const noexcept override {
    return cfg_.segment_bytes;
  }

 private:
  static constexpr pipeline_model core = tdes_pipelined(); ///< the patent's HW 3-DES
  static constexpr std::size_t tag_bytes = 8;
  static constexpr cycles hash_startup = 20;
  static constexpr double hash_cycles_per_byte = 1.0;
  static constexpr u64 iv_tweak = 0x61C0DEULL;

  using tag = std::array<u8, tag_bytes>;

  /// Fetch the whole segment at \p seg_base into \p seg (segment_bytes)
  /// and open it there; the fetch plus the open's charge.
  [[nodiscard]] cycles load_segment(addr_t seg_base, std::span<u8> seg);
  /// Charge one open of the segment at \p seg_base: the parallel decipher
  /// and, unless it was verified recently, the keyed hash (advancing the
  /// recently-verified window). Returns its cycles and whether it verifies.
  [[nodiscard]] std::pair<cycles, bool> charge_open(addr_t seg_base);
  /// Decipher the fetched segment \p seg in place; when \p verify, check
  /// its keyed hash and count a failure.
  void open_segment(addr_t seg_base, std::span<u8> seg, bool verify);
  /// Encrypt + tag + write back a whole segment.
  [[nodiscard]] cycles store_segment(addr_t seg_base, std::span<const u8> plain);

  /// HMAC over (address || plaintext); its first tag_bytes are the tag.
  [[nodiscard]] std::array<u8, 32> compute_tag(addr_t seg_base,
                                               std::span<const u8> plain) const noexcept;
  [[nodiscard]] cycles hash_time(std::size_t nbytes) const noexcept;
  void touch_verified(addr_t seg_base);
  [[nodiscard]] bool recently_verified(addr_t seg_base) const noexcept;

  const crypto::block_cipher* cipher_;
  crypto::hmac_sha256_key mac_key_; ///< keyed-hash key, absorbed once
  gi_edu_config cfg_;
  std::unordered_map<addr_t, tag> tags_; ///< tag store (modelled on-chip/side-band)
  std::vector<addr_t> verified_lru_;
  u64 auth_failures_ = 0;
};

} // namespace buscrypt::edu
