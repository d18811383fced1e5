#pragma once
/// \file compress_edu.hpp
/// The Section 4 / Fig. 8 proposal: "add a compression step to a ciphering
/// solution. The compression has to be done before ciphering, if not,
/// compression will have a very poor ratio due to the strong stochastic
/// properties of encrypted data."
///
/// Code region: CodePack-compressed groups, packed tight in external
/// memory, each group pad-encrypted (crypto::address_pad) over its
/// compressed bytes. A line fetch reads *fewer bus bytes* (the performance
/// upside) but pays the decompressor (the downside) — the origin of
/// CodePack's "+/- 10%".
/// Data region: pad-encrypted, uncompressed (data is written at runtime;
/// the survey's proposal compresses the static code image).

#include "compress/codepack.hpp"
#include "crypto/modes.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

namespace buscrypt::edu {

struct compress_edu_config {
  std::size_t group_bytes = 64;
};

/// Compression + encryption EDU.
class compress_edu final : public edu {
 public:
  compress_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
               compress_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Compress+OTP";
  }

  /// Compress, encrypt and lay out a static code image at \p base.
  /// Must be called before any read into [base, base+code.size()).
  void install_code(addr_t base, std::span<const u8> code);

  /// install_image routes through install_code for the first region and
  /// the pad path for later (data) regions.
  void install_image(addr_t base, std::span<const u8> plain) override;
  void read_image(addr_t base, std::span<u8> plain_out) override;

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path. Code fetches queue their *compressed* group reads
  /// into one lower window (fewer bus bytes, banks overlapping); the
  /// address-derived pad runs in parallel with the whole window and the
  /// streaming decompressor is gated on each group's own arrival. The
  /// decompressor's fill latency (dictionary warm-up) is paid once per
  /// window — group state stays hot across a batch, the amortisation a
  /// scalar stream can never see. Data traffic takes the pad-overlap
  /// path (writes staged pre-enciphered, reads XORed on arrival).
  /// Requests straddling the code/data boundary detour in order.
  void submit(std::span<sim::mem_txn> batch) override;

  /// Memory density gain on the installed code ("increase of memory
  /// density of 35%" is CodePack's claim).
  [[nodiscard]] double density_gain() const noexcept { return image_.density_gain(); }

 private:
  [[nodiscard]] bool in_code(addr_t addr, std::size_t len) const noexcept;
  [[nodiscard]] cycles read_code(addr_t addr, std::span<u8> out);
  /// One code group: where its compressed bytes sit and how many, the bit
  /// its code starts at in them, and its inflated length.
  struct code_group {
    addr_t phys;
    std::size_t len;
    std::size_t bit;
    std::size_t plain_len;
  };
  /// The group holding code offset \p offset.
  [[nodiscard]] code_group group_at(addr_t offset) const noexcept;
  /// Decipher \p grp's fetched compressed bytes \p chunk in place and
  /// inflate them into \p plain (plain_len bytes).
  void decode_group(const code_group& grp, std::span<u8> chunk,
                    std::span<u8> plain) const;
  [[nodiscard]] cycles pad_io(addr_t addr, std::span<u8> buf, bool is_write,
                              std::span<const u8> wdata);

  static constexpr pipeline_model pad_core = aes_pipelined();
  static constexpr compress::codec_timing decomp{4, 0.5}; ///< hardware decompressor
  static constexpr u64 tweak = 0xC0305E55ULL;

  crypto::address_pad pad_;
  compress_edu_config cfg_;
  compress::codepack engine_;
  compress::codepack_image image_; ///< index + dictionaries (on-chip model)
  addr_t code_base_ = 0;
  std::size_t code_size_ = 0;
  bool code_installed_ = false;
  // Physical byte extents of each group in external memory.
  std::vector<std::pair<u32, u32>> group_extent_; ///< (offset, length)
};

} // namespace buscrypt::edu
