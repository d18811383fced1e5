#pragma once
/// \file block_cipher.hpp
/// Abstract block cipher, the contract every EDU core in the survey is built
/// on (Fig. 2b). Implementations: AES (FIPS-197), DES/3DES (FIPS 46-3),
/// Best's substitution/transposition cipher (Fig. 3), and the DS5002FP-style
/// 8-bit cipher (Fig. 6).

#include "common/types.hpp"

#include <span>
#include <stdexcept>
#include <string_view>

namespace buscrypt::crypto {

/// A deterministic keyed permutation over fixed-size blocks.
///
/// Contract: in.size() == out.size() == block_size(); in and out may alias.
/// decrypt_block(encrypt_block(x)) == x for every block x.
class block_cipher {
 public:
  virtual ~block_cipher() = default;

  /// Block width in bytes (8 for DES family, 16 for AES, 1 for DS5002FP).
  [[nodiscard]] virtual std::size_t block_size() const noexcept = 0;

  /// Human-readable identifier used in benchmark tables.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Encrypt one block.
  virtual void encrypt_block(std::span<const u8> in, std::span<u8> out) const = 0;

  /// Decrypt one block.
  virtual void decrypt_block(std::span<const u8> in, std::span<u8> out) const = 0;

  /// Encrypt a run of contiguous independent blocks (ECB semantics).
  /// in.size() == out.size() and a multiple of block_size(); in and out may
  /// alias exactly (same span) but must not partially overlap. The default
  /// loops over encrypt_block; wide cores (bitsliced DES) override it to
  /// process many blocks per invocation.
  virtual void encrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
    check_blocks(in, out);
    const std::size_t bs = block_size();
    for (std::size_t off = 0; off < in.size(); off += bs)
      encrypt_block(in.subspan(off, bs), out.subspan(off, bs));
  }

  /// Bulk companion of decrypt_block; same contract as encrypt_blocks.
  virtual void decrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
    check_blocks(in, out);
    const std::size_t bs = block_size();
    for (std::size_t off = 0; off < in.size(); off += bs)
      decrypt_block(in.subspan(off, bs), out.subspan(off, bs));
  }

 protected:
  /// Shared precondition check for implementations.
  void check_block(std::span<const u8> in, std::span<const u8> out) const {
    if (in.size() != block_size() || out.size() != block_size())
      throw std::invalid_argument("block_cipher: span size != block_size()");
  }

  /// Precondition check for the bulk entry points.
  void check_blocks(std::span<const u8> in, std::span<const u8> out) const {
    if (in.size() != out.size() || in.size() % block_size() != 0)
      throw std::invalid_argument(
          "block_cipher: bulk spans must match and be block-aligned");
  }
};

} // namespace buscrypt::crypto
