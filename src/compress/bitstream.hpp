#pragma once
/// \file bitstream.hpp
/// MSB-first bit I/O shared by the Huffman and CodePack codecs.

#include "common/types.hpp"

#include <span>
#include <stdexcept>

namespace buscrypt::compress {

/// Append-only MSB-first bit writer.
class bit_writer {
 public:
  /// Write the low \p nbits of \p value, MSB first. nbits <= 32.
  void put(u32 value, unsigned nbits) {
    for (unsigned i = nbits; i-- > 0;) {
      const bool bit = (value >> i) & 1;
      if (fill_ == 0) out_.push_back(0);
      out_.back() = static_cast<u8>(out_.back() | (u8{bit} << (7 - fill_)));
      fill_ = (fill_ + 1) % 8;
    }
  }

  /// Total bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return out_.size() * 8 - (fill_ == 0 ? 0 : 8 - fill_);
  }

  /// Take the buffer (padded with zero bits to a byte boundary).
  [[nodiscard]] bytes take() && { return std::move(out_); }
  [[nodiscard]] const bytes& buffer() const noexcept { return out_; }

 private:
  bytes out_;
  unsigned fill_ = 0; ///< bits used in the last byte (0 == byte boundary)
};

/// MSB-first bit reader over a fixed buffer.
class bit_reader {
 public:
  explicit bit_reader(std::span<const u8> data) : data_(data) {}

  [[nodiscard]] bool get_bit() {
    if (pos_ >= data_.size() * 8) throw std::invalid_argument("bitstream: underrun");
    const bool bit = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1;
    ++pos_;
    return bit;
  }

  [[nodiscard]] u32 get(unsigned nbits) {
    u32 v = 0;
    for (unsigned i = 0; i < nbits; ++i) v = (v << 1) | u32{get_bit()};
    return v;
  }

  void seek_bit(std::size_t bit) noexcept { pos_ = bit; }

 private:
  std::span<const u8> data_;
  std::size_t pos_ = 0;
};

} // namespace buscrypt::compress
