#pragma once
/// \file codec.hpp
/// Lossless codec contract for the Fig. 8 compression-before-encryption
/// pipeline. Each codec also carries a hardware latency model so the
/// compress EDU can charge decompression time on the fetch path (IBM
/// CodePack's "+/- 10%" performance claim is about exactly this trade:
/// fewer bus beats vs decompressor latency).

#include "common/types.hpp"

#include <span>
#include <string_view>

namespace buscrypt::compress {

/// Hardware decompressor timing: fixed startup plus per-output-byte cost.
struct codec_timing {
  cycles startup = 4;
  double cycles_per_byte = 0.5;

  [[nodiscard]] cycles latency_for(std::size_t out_bytes) const noexcept {
    return startup +
           static_cast<cycles>(static_cast<double>(out_bytes) * cycles_per_byte);
  }
};

/// A lossless byte codec. decompress(compress(x)) == x for all x.
class codec {
 public:
  virtual ~codec() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Compress; output is self-describing (embeds original length).
  [[nodiscard]] virtual bytes compress(std::span<const u8> in) const = 0;

  /// Decompress; \throws std::invalid_argument on corrupt input.
  [[nodiscard]] virtual bytes decompress(std::span<const u8> in) const = 0;

  /// Modeled hardware decompression timing.
  [[nodiscard]] virtual codec_timing timing() const noexcept { return {}; }

  /// Convenience: compressed size / original size (1.0 when empty).
  [[nodiscard]] double ratio_on(std::span<const u8> in) const {
    if (in.empty()) return 1.0;
    return static_cast<double>(compress(in).size()) / static_cast<double>(in.size());
  }
};

} // namespace buscrypt::compress
