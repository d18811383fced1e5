// RSA: primality, keygen, raw exponentiation, key wrapping.

#include "common/rng.hpp"
#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace buscrypt::crypto {
namespace {

TEST(Primality, KnownPrimesAndComposites) {
  rng r(1);
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 65537ull, 2147483647ull})
    EXPECT_TRUE(is_probable_prime(bignum{p}, r)) << p;
  for (u64 c : {1ull, 4ull, 9ull, 561ull /*Carmichael*/, 65536ull, 2147483647ull * 3})
    EXPECT_FALSE(is_probable_prime(bignum{c}, r)) << c;
}

TEST(Primality, TrialDivisionTableProductsAndSmallValues) {
  // Every prime below 2000 is in is_probable_prime's trial-division table
  // and must be accepted there; a product of two of them must be rejected
  // by a zero remainder. 0..4 take the early exits.
  std::vector<u64> primes;
  for (u64 c = 2; c < 2000; ++c) {
    bool prime = true;
    for (u64 p : primes) {
      if (p * p > c) break;
      if (c % p == 0) {
        prime = false;
        break;
      }
    }
    if (prime) primes.push_back(c);
  }
  ASSERT_EQ(primes.size(), 303u);
  rng r(13);
  for (u64 n : {0ull, 1ull, 4ull}) EXPECT_FALSE(is_probable_prime(bignum{n}, r)) << n;
  for (u64 n : {2ull, 3ull}) EXPECT_TRUE(is_probable_prime(bignum{n}, r)) << n;
  for (u64 p : primes) EXPECT_TRUE(is_probable_prime(bignum{p}, r)) << p;
  for (std::size_t i = 0; i < primes.size(); ++i)
    for (std::size_t j = i; j < primes.size(); ++j)
      ASSERT_FALSE(is_probable_prime(bignum{primes[i] * primes[j]}, r))
          << primes[i] << " * " << primes[j];
  // Past the table, Miller-Rabin decides: 2003 and 2011 are prime.
  EXPECT_TRUE(is_probable_prime(bignum{2003}, r));
  EXPECT_TRUE(is_probable_prime(bignum{2011}, r));
  EXPECT_FALSE(is_probable_prime(bignum{2003ull * 2011}, r));
}

TEST(Primality, LargeKnownPrime) {
  rng r(2);
  // 2^127 - 1 (Mersenne prime).
  const bignum m127 = bignum::from_hex("7fffffffffffffffffffffffffffffff");
  EXPECT_TRUE(is_probable_prime(m127, r));
  EXPECT_FALSE(is_probable_prime(m127 * bignum{3}, r));
}

TEST(Primality, GeneratedPrimesHaveExactBitLength) {
  rng r(3);
  for (unsigned bits : {16u, 24u, 48u, 96u}) {
    const bignum p = generate_prime(r, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
  }
}

TEST(Rsa, KeygenAndRawRoundTrip) {
  rng r(4);
  const rsa_keypair kp = rsa_generate(r, 256);
  EXPECT_GE(kp.pub.n.bit_length(), 250u);

  const bignum msg{0x123456789ULL};
  const bignum ct = rsa_encrypt_raw(kp.pub, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(rsa_decrypt_raw(kp.priv, ct), msg);
}

TEST(Rsa, KeygenIsPinnedPerSeed) {
  // Seed, modulus bits, the modulus, and the next rng word after keygen.
  // Any change to the primes found or to the rng draws keygen consumes
  // (candidate bytes, Miller-Rabin bases) moves them.
  std::istringstream pinned(R"(
1 256 cdcd5568f495f291c5558701f1c048273fc6893cd570e892b1b3e5eb7c0cc73d 59b0e895
1 384 bb7c57149daada20230634b33ba13970ae2bfccb09b83ea3449eec3d55a69933efef85a2b1c42be59df4fa3d7192f153 8f212a06
2 256 9f2b11aa8ca472114ec04a8a22471367011300508328493d87beb94974d09dbf bcae742d
2 384 cf8fc9c6f9a2e66a8a33b09e09d52f30913bfbe56a9f164bcb80edbf32053d55971954a41e5daab74d27319acbacf2b5 26debe48
3 256 dbf0a006892bcfd7623d5417446b556a1c049efca12368541d3c6e389a00a3bf f9b2ee9c
3 384 b47e7655271515c2e5c72ad8c1cf27a09fe2487775e339270a387a2103c0f61da247a5ec102e115b1b0aaa5e5fce227d 091e8543
)");
  u64 seed = 0;
  unsigned bits = 0;
  std::string n, next;
  int rows = 0;
  while (pinned >> seed >> bits >> n >> next) {
    rng r(seed);
    EXPECT_EQ(rsa_generate(r, bits).pub.n.to_hex(), n) << seed << "/" << bits;
    EXPECT_EQ(r.next_u32(), std::stoul(next, nullptr, 16)) << seed << "/" << bits;
    ++rows;
  }
  EXPECT_EQ(rows, 6);
}

TEST(Rsa, MessageAboveModulusRejected) {
  rng r(5);
  const rsa_keypair kp = rsa_generate(r, 128);
  EXPECT_THROW((void)rsa_encrypt_raw(kp.pub, kp.pub.n + bignum{1}),
               std::invalid_argument);
}

TEST(Rsa, WrapUnwrapSessionKey) {
  rng r(6);
  const rsa_keypair kp = rsa_generate(r, 384);
  const bytes k = r.random_bytes(16);
  const bytes wrapped = rsa_wrap_key(kp.pub, k, r);
  EXPECT_EQ(wrapped.size(), kp.pub.modulus_bytes());
  EXPECT_EQ(rsa_unwrap_key(kp.priv, wrapped), k);
}

TEST(Rsa, WrappingIsRandomized) {
  rng r(7);
  const rsa_keypair kp = rsa_generate(r, 384);
  const bytes k = r.random_bytes(16);
  EXPECT_NE(rsa_wrap_key(kp.pub, k, r), rsa_wrap_key(kp.pub, k, r));
}

TEST(Rsa, OversizedKeyRejected) {
  rng r(8);
  const rsa_keypair kp = rsa_generate(r, 128); // 16-byte modulus
  EXPECT_THROW((void)rsa_wrap_key(kp.pub, r.random_bytes(8), r),
               std::invalid_argument);
}

TEST(Rsa, CorruptedWrapDetected) {
  rng r(9);
  const rsa_keypair kp = rsa_generate(r, 384);
  const bytes k = r.random_bytes(16);
  bytes wrapped = rsa_wrap_key(kp.pub, k, r);
  wrapped[wrapped.size() / 2] ^= 0x01;
  // Either the padding check fires or the key comes back wrong.
  try {
    const bytes out = rsa_unwrap_key(kp.priv, wrapped);
    EXPECT_NE(out, k);
  } catch (const std::invalid_argument&) {
    SUCCEED();
  }
}

TEST(Rsa, WrongPrivateKeyFails) {
  rng r(10);
  const rsa_keypair kp1 = rsa_generate(r, 384);
  const rsa_keypair kp2 = rsa_generate(r, 384);
  const bytes k = r.random_bytes(16);
  const bytes wrapped = rsa_wrap_key(kp1.pub, k, r);
  try {
    EXPECT_NE(rsa_unwrap_key(kp2.priv, wrapped), k);
  } catch (const std::invalid_argument&) {
    SUCCEED();
  }
}

TEST(Rsa, KeygenValidatesArguments) {
  rng r(11);
  EXPECT_THROW((void)rsa_generate(r, 63), std::invalid_argument);
  EXPECT_THROW((void)rsa_generate(r, 129), std::invalid_argument);
}

TEST(Rsa, CiphertextLongerThanPlaintext) {
  // Section 2.2's point: "ciphered text is longer than the original clear
  // text; larger memories are thus needed".
  rng r(12);
  const rsa_keypair kp = rsa_generate(r, 256);
  const bytes k = r.random_bytes(8);
  const bytes wrapped = rsa_wrap_key(kp.pub, k, r);
  EXPECT_GT(wrapped.size(), k.size());
}

} // namespace
} // namespace buscrypt::crypto
