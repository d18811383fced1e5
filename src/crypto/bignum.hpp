#pragma once
/// \file bignum.hpp
/// Minimal arbitrary-precision unsigned integer, built for the Fig. 1
/// key-exchange protocol (toy RSA) and the asymmetric-vs-symmetric cost
/// comparison in Section 2.2 ("modular arithmetic ... on huge integers
/// (512-2048 bits) ... modular exponentiation").
///
/// Base 2^32 limbs, little-endian. Division is Knuth Algorithm D. Modular
/// exponentiation by an odd modulus (every RSA and Miller-Rabin modulus)
/// runs Montgomery multiplication (CIOS) on 64-bit words, so its ladder
/// neither allocates nor divides; an even modulus keeps square-and-multiply
/// over Knuth D. Not constant-time — side channels are outside the
/// survey's scope.

#include "common/types.hpp"

#include <compare>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace buscrypt::crypto {

class bignum {
 public:
  /// Zero.
  bignum() = default;

  /// From a machine word.
  explicit bignum(u64 v);

  /// From big-endian bytes (leading zeros allowed).
  [[nodiscard]] static bignum from_bytes(std::span<const u8> be);

  /// From a hex string (no 0x prefix).
  [[nodiscard]] static bignum from_hex(std::string_view hex);

  /// Big-endian bytes, zero-padded on the left to \p min_len.
  [[nodiscard]] bytes to_bytes(std::size_t min_len = 0) const;

  /// Lowercase hex, no leading zeros ("0" for zero).
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  [[nodiscard]] bool is_odd() const noexcept {
    return !limbs_.empty() && (limbs_[0] & 1);
  }

  /// Position of the most significant set bit + 1; 0 for zero.
  [[nodiscard]] std::size_t bit_length() const noexcept;

  /// Value of bit \p i (0 = LSB).
  [[nodiscard]] bool bit(std::size_t i) const noexcept;

  [[nodiscard]] std::strong_ordering operator<=>(const bignum& rhs) const noexcept;
  [[nodiscard]] bool operator==(const bignum& rhs) const noexcept = default;

  bignum& operator+=(const bignum& rhs);
  bignum& operator-=(const bignum& rhs); ///< requires *this >= rhs
  friend bignum operator+(bignum a, const bignum& b) { return a += b; }
  friend bignum operator-(bignum a, const bignum& b) { return a -= b; }
  friend bignum operator*(const bignum& a, const bignum& b);

  /// Shift helpers.
  [[nodiscard]] bignum shifted_left(std::size_t bits) const;
  [[nodiscard]] bignum shifted_right(std::size_t bits) const;

  /// Quotient and remainder; \throws std::domain_error on divide-by-zero.
  /// (Defined after the class: its members need the complete type.)
  struct divmod_result;
  [[nodiscard]] static divmod_result divmod(const bignum& num, const bignum& den);

  friend bignum operator/(const bignum& a, const bignum& b);
  friend bignum operator%(const bignum& a, const bignum& b);

  /// Remainder modulo a machine word; \throws std::domain_error on zero.
  [[nodiscard]] u32 mod_u32(u32 d) const;

  /// (a * b) mod m.
  [[nodiscard]] static bignum mulmod(const bignum& a, const bignum& b, const bignum& m);

  /// base^exp mod m by left-to-right square and multiply: in Montgomery
  /// form when m is odd, with mulmod otherwise.
  [[nodiscard]] static bignum powmod(const bignum& base, const bignum& exp,
                                     const bignum& m);

  /// Greatest common divisor.
  [[nodiscard]] static bignum gcd(bignum a, bignum b);

  /// Modular inverse of a mod m; \throws std::domain_error when gcd != 1.
  [[nodiscard]] static bignum modinv(const bignum& a, const bignum& m);

  /// Truncate to a u64 (low 64 bits).
  [[nodiscard]] u64 low_u64() const noexcept;

 private:
  void trim() noexcept;
  std::vector<u32> limbs_; // little-endian; empty == zero
};

struct bignum::divmod_result {
  bignum quotient;
  bignum remainder;
};

[[nodiscard]] inline bignum operator/(const bignum& a, const bignum& b) {
  return bignum::divmod(a, b).quotient;
}
[[nodiscard]] inline bignum operator%(const bignum& a, const bignum& b) {
  return bignum::divmod(a, b).remainder;
}

} // namespace buscrypt::crypto
