#pragma once
/// \file rsa.hpp
/// Textbook RSA with PKCS#1 v1.5-style type-2 padding for session-key
/// wrapping — the asymmetric half of the Fig. 1 protocol: the chip
/// manufacturer provisions (Em, Dm); the software editor wraps the session
/// key K under Em; only the processor (holder of Dm in on-chip NVM) can
/// unwrap it.
///
/// This is a protocol model, not a hardened RSA: no blinding, no OAEP.
/// Key sizes of 256–1024 bits keep tests fast while preserving the cost
/// asymmetry the survey discusses (modular exponentiation on huge integers).

#include "common/rng.hpp"
#include "crypto/bignum.hpp"

namespace buscrypt::crypto {

/// Public half (Em in the paper's notation).
struct rsa_public_key {
  bignum n;
  bignum e;
  /// Modulus size in whole bytes — also the ciphertext size.
  [[nodiscard]] std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

/// Private half (Dm), kept in the processor's on-chip NVM in the protocol.
struct rsa_private_key {
  bignum n;
  bignum d;
};

struct rsa_keypair {
  rsa_public_key pub;
  rsa_private_key priv;
};

/// Miller–Rabin compositeness test, \p rounds random bases.
[[nodiscard]] bool is_probable_prime(const bignum& n, rng& r, int rounds = 24);

/// Random prime of exactly \p bits bits (top two bits set so products of
/// two such primes reach the intended modulus size).
[[nodiscard]] bignum generate_prime(rng& r, unsigned bits);

/// Generate an RSA keypair with a modulus of \p modulus_bits (e = 65537).
[[nodiscard]] rsa_keypair rsa_generate(rng& r, unsigned modulus_bits);

/// Raw m^e mod n. \p m must be < n.
[[nodiscard]] bignum rsa_encrypt_raw(const rsa_public_key& k, const bignum& m);

/// Raw c^d mod n.
[[nodiscard]] bignum rsa_decrypt_raw(const rsa_private_key& k, const bignum& c);

/// Wrap \p key (e.g. a 16-byte AES session key) under \p pub with
/// randomized type-2 padding: 00 02 <nonzero random> 00 <key>.
/// \throws std::invalid_argument when the key is too long for the modulus.
[[nodiscard]] bytes rsa_wrap_key(const rsa_public_key& pub, std::span<const u8> key,
                                 rng& r);

/// Unwrap a key wrapped by rsa_wrap_key.
/// \throws std::invalid_argument on malformed padding.
[[nodiscard]] bytes rsa_unwrap_key(const rsa_private_key& priv,
                                   std::span<const u8> wrapped);

} // namespace buscrypt::crypto
