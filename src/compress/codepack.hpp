#pragma once
/// \file codepack.hpp
/// CodePack-style instruction compression (IBM [16]). Like the real
/// PowerPC CodePack it: (1) treats code as 32-bit words split into high
/// and low 16-bit halves, each with its own dictionary (instruction
/// opcodes/registers concentrate in the high half, immediates in the low);
/// (2) compresses fixed-size groups independently; (3) keeps an index so
/// any group can be fetched and decompressed at random — the property the
/// compress EDU needs to serve cache-line fills.
///
/// Coding per half: flag bit 0 + 8-bit dictionary index (hit in the 256
/// most frequent halves) or flag bit 1 + 16 raw bits (miss).

#include "compress/codec.hpp"

#include <vector>

namespace buscrypt::compress {

/// A compressed code image with random-access group structure.
struct codepack_image {
  std::size_t original_size = 0;
  std::size_t group_bytes = 64;        ///< uncompressed group granularity
  std::vector<u16> hi_dict;            ///< <= 256 entries
  std::vector<u16> lo_dict;
  std::vector<u32> group_bit_offsets;  ///< start of each group in payload
  bytes payload;                       ///< bit-packed groups

  /// Total stored footprint: payload + dictionaries + index. The index is
  /// costed at 2 bytes per group (16-bit offsets relative to a 64 KiB
  /// region, the granularity CodePack's line address table uses).
  [[nodiscard]] std::size_t compressed_size() const noexcept {
    return payload.size() + (hi_dict.size() + lo_dict.size()) * 2 +
           group_bit_offsets.size() * 2;
  }
  /// Memory density gain vs the raw image (the paper quotes ~35%).
  [[nodiscard]] double density_gain() const noexcept {
    const std::size_t c = compressed_size();
    return c == 0 ? 0.0
                  : (static_cast<double>(original_size) - static_cast<double>(c)) /
                        static_cast<double>(original_size);
  }
};

/// The compressor/decompressor engine.
class codepack {
 public:
  /// \param group_bytes uncompressed bytes per random-access group; must
  ///        be a multiple of 4 (whole instruction words).
  explicit codepack(std::size_t group_bytes = 64);

  /// Build dictionaries over the whole image and pack every group.
  /// \p code length must be a multiple of 4.
  [[nodiscard]] codepack_image compress_image(std::span<const u8> code) const;

  /// Decompress a single group (cache-line fill path).
  [[nodiscard]] bytes decompress_group(const codepack_image& img,
                                       std::size_t group) const;

  /// Decompress \p out.size() bytes (whole words) of a group directly from
  /// a fetched chunk of the payload into \p out — the hardware fill path,
  /// which never sees the whole image. \p chunk must contain the group's
  /// bits starting at \p bit_offset; dictionaries are taken from \p dicts.
  void decompress_chunk(std::span<const u8> chunk, std::size_t bit_offset,
                        std::span<u8> out, const codepack_image& dicts) const;

  /// Decompress everything (image install path).
  [[nodiscard]] bytes decompress_all(const codepack_image& img) const;

  [[nodiscard]] std::size_t group_bytes() const noexcept { return group_bytes_; }

 private:
  std::size_t group_bytes_;
};

/// Flat codec adapter so the Fig. 8 sweep can compare codepack with the
/// byte codecs on equal terms.
class codepack_codec final : public codec {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "CodePack"; }
  [[nodiscard]] bytes compress(std::span<const u8> in) const override;
  [[nodiscard]] bytes decompress(std::span<const u8> in) const override;
  [[nodiscard]] codec_timing timing() const noexcept override { return {4, 0.5}; }
};

} // namespace buscrypt::compress
