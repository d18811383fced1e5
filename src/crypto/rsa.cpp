#include "crypto/rsa.hpp"

#include <array>
#include <stdexcept>

namespace buscrypt::crypto {

namespace {

/// Small primes for trial division before Miller–Rabin.
const std::vector<u32>& small_primes() {
  static const std::vector<u32> primes = [] {
    std::vector<u32> out;
    std::array<bool, 2000> composite{};
    for (u32 i = 2; i < composite.size(); ++i) {
      if (composite[i]) continue;
      out.push_back(i);
      for (u32 j = i * i; j < composite.size(); j += i) composite[j] = true;
    }
    return out;
  }();
  return primes;
}

bignum random_below(const bignum& bound, rng& r) {
  const std::size_t nbytes = (bound.bit_length() + 7) / 8;
  for (;;) {
    bytes raw = r.random_bytes(nbytes);
    bignum candidate = bignum::from_bytes(raw);
    if (candidate < bound) return candidate;
  }
}

} // namespace

bool is_probable_prime(const bignum& n, rng& r, int rounds) {
  const bignum one{1};
  const bignum two{2};
  if (n < two) return false;
  if (n == two) return true;
  if (!n.is_odd()) return false;

  // A zero remainder rejects n unless n is that small prime itself.
  for (u32 p : small_primes()) {
    if (n.mod_u32(p) == 0) return n == bignum{p};
  }

  // n - 1 = d * 2^s with d odd.
  const bignum n_minus_1 = n - one;
  bignum d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++s;
  }

  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    bignum a = random_below(n - bignum{3}, r) + two;
    bignum x = bignum::powmod(a, d, n);
    if (x == one || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = bignum::mulmod(x, x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

bignum generate_prime(rng& r, unsigned bits) {
  if (bits < 8) throw std::invalid_argument("generate_prime: need >= 8 bits");
  for (;;) {
    bytes raw = r.random_bytes((bits + 7) / 8);
    // Force exact bit length with the top two bits set, and oddness.
    raw[0] |= 0xC0;
    raw.back() |= 0x01;
    bignum candidate = bignum::from_bytes(raw);
    candidate = candidate.shifted_right((8 - bits % 8) % 8);
    if (is_probable_prime(candidate, r)) return candidate;
  }
}

rsa_keypair rsa_generate(rng& r, unsigned modulus_bits) {
  if (modulus_bits < 64 || modulus_bits % 2 != 0)
    throw std::invalid_argument("rsa_generate: modulus_bits must be even and >= 64");
  const bignum e{65537};
  const bignum one{1};
  for (;;) {
    const bignum p = generate_prime(r, modulus_bits / 2);
    const bignum q = generate_prime(r, modulus_bits / 2);
    if (p == q) continue;
    const bignum n = p * q;
    const bignum phi = (p - one) * (q - one);
    if (bignum::gcd(e, phi) != one) continue;
    const bignum d = bignum::modinv(e, phi);
    return rsa_keypair{rsa_public_key{n, e}, rsa_private_key{n, d}};
  }
}

bignum rsa_encrypt_raw(const rsa_public_key& k, const bignum& m) {
  if (!(m < k.n)) throw std::invalid_argument("rsa: message >= modulus");
  return bignum::powmod(m, k.e, k.n);
}

bignum rsa_decrypt_raw(const rsa_private_key& k, const bignum& c) {
  return bignum::powmod(c, k.d, k.n);
}

bytes rsa_wrap_key(const rsa_public_key& pub, std::span<const u8> key, rng& r) {
  const std::size_t mod_len = pub.modulus_bytes();
  if (key.size() + 11 > mod_len)
    throw std::invalid_argument("rsa_wrap_key: key too long for modulus");

  bytes em(mod_len, 0);
  em[0] = 0x00;
  em[1] = 0x02;
  const std::size_t pad_len = mod_len - 3 - key.size();
  for (std::size_t i = 0; i < pad_len; ++i) {
    u8 b;
    do { b = r.next_byte(); } while (b == 0);
    em[2 + i] = b;
  }
  em[2 + pad_len] = 0x00;
  for (std::size_t i = 0; i < key.size(); ++i) em[3 + pad_len + i] = key[i];

  const bignum c = rsa_encrypt_raw(pub, bignum::from_bytes(em));
  return c.to_bytes(mod_len);
}

bytes rsa_unwrap_key(const rsa_private_key& priv, std::span<const u8> wrapped) {
  const bignum m = rsa_decrypt_raw(priv, bignum::from_bytes(wrapped));
  const std::size_t mod_len = (priv.n.bit_length() + 7) / 8;
  const bytes em = m.to_bytes(mod_len);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02)
    throw std::invalid_argument("rsa_unwrap_key: bad padding header");
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10)
    throw std::invalid_argument("rsa_unwrap_key: missing pad separator");
  return bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

} // namespace buscrypt::crypto
