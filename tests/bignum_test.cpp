// Arbitrary-precision integer tests: representation, arithmetic identities,
// Knuth-D division invariants, modular arithmetic (the Montgomery ladder
// against plain square-and-multiply).

#include "common/rng.hpp"
#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace buscrypt::crypto {
namespace {

bignum random_big(rng& r, std::size_t nbytes) {
  return bignum::from_bytes(r.random_bytes(nbytes));
}

TEST(Bignum, ZeroProperties) {
  const bignum z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z, bignum{0});
}

TEST(Bignum, U64RoundTrip) {
  const bignum a{0xDEADBEEFCAFEF00DULL};
  EXPECT_EQ(a.low_u64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(a.to_hex(), "deadbeefcafef00d");
  EXPECT_EQ(a.bit_length(), 64u);
}

TEST(Bignum, HexRoundTrip) {
  const char* h = "0123456789abcdef00112233445566778899aabbccddeeff";
  const bignum a = bignum::from_hex(h);
  EXPECT_EQ(a.to_hex(), std::string(h).substr(1)); // leading zero dropped
}

TEST(Bignum, BytesRoundTrip) {
  rng r(1);
  for (int i = 0; i < 20; ++i) {
    bytes raw = r.random_bytes(1 + r.below(64));
    raw[0] |= 0x80; // no leading zeros to lose
    const bignum a = bignum::from_bytes(raw);
    EXPECT_EQ(a.to_bytes(), raw);
  }
}

TEST(Bignum, ToBytesPadsToMinimum) {
  const bignum a{0x1234};
  const bytes padded = a.to_bytes(8);
  ASSERT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[6], 0x12);
  EXPECT_EQ(padded[7], 0x34);
  EXPECT_EQ(padded[0], 0x00);
}

TEST(Bignum, ComparisonOrdering) {
  const bignum a{100}, b{200};
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, bignum{100});
  const bignum big = bignum::from_hex("ffffffffffffffffff");
  EXPECT_GT(big, b);
}

TEST(Bignum, AddSubInverse) {
  rng r(2);
  for (int i = 0; i < 50; ++i) {
    const bignum a = random_big(r, 24);
    const bignum b = random_big(r, 16);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST(Bignum, SubtractionUnderflowThrows) {
  EXPECT_THROW((void)(bignum{1} - bignum{2}), std::domain_error);
}

TEST(Bignum, AdditionCarriesAcrossLimbs) {
  const bignum a = bignum::from_hex("ffffffffffffffffffffffff");
  const bignum one{1};
  EXPECT_EQ((a + one).to_hex(), "1000000000000000000000000");
}

TEST(Bignum, MultiplicationIdentities) {
  rng r(3);
  const bignum zero, one{1};
  for (int i = 0; i < 20; ++i) {
    const bignum a = random_big(r, 20);
    EXPECT_EQ(a * one, a);
    EXPECT_EQ(a * zero, zero);
    const bignum b = random_big(r, 20);
    EXPECT_EQ(a * b, b * a);
  }
}

TEST(Bignum, MultiplicationAgainstU64) {
  rng r(4);
  for (int i = 0; i < 100; ++i) {
    const u64 x = r.next_u32();
    const u64 y = r.next_u32();
    EXPECT_EQ((bignum{x} * bignum{y}).low_u64(), x * y);
  }
}

TEST(Bignum, ShiftRoundTrip) {
  rng r(5);
  for (int i = 0; i < 30; ++i) {
    const bignum a = random_big(r, 16);
    const std::size_t s = r.below(130);
    EXPECT_EQ(a.shifted_left(s).shifted_right(s), a);
  }
}

TEST(Bignum, DivModInvariant) {
  // The fundamental check: a == q*b + r with r < b, across sizes that
  // exercise the single-limb path, the add-back path and big operands.
  rng r(6);
  for (int i = 0; i < 200; ++i) {
    const bignum a = random_big(r, 1 + r.below(48));
    bignum b = random_big(r, 1 + r.below(24));
    if (b.is_zero()) b = bignum{1};
    const auto [q, rem] = bignum::divmod(a, b);
    EXPECT_EQ(q * b + rem, a);
    EXPECT_LT(rem, b);
  }
}

TEST(Bignum, DivisionByZeroThrows) {
  EXPECT_THROW((void)bignum::divmod(bignum{1}, bignum{}), std::domain_error);
}

TEST(Bignum, DivisionKnownValues) {
  const bignum a = bignum::from_hex("10000000000000000"); // 2^64
  const bignum b{3};
  const auto [q, rem] = bignum::divmod(a, b);
  EXPECT_EQ(q.to_hex(), "5555555555555555");
  EXPECT_EQ(rem, bignum{1});
}

TEST(Bignum, PowmodSmallCrossCheck) {
  // Against native arithmetic on small operands.
  rng r(7);
  for (int i = 0; i < 100; ++i) {
    const u64 base = 2 + r.below(1000);
    const u64 exp = r.below(20);
    const u64 mod = 2 + r.below(100'000);
    u64 expect = 1 % mod;
    for (u64 e = 0; e < exp; ++e) expect = (expect * base) % mod;
    EXPECT_EQ(bignum::powmod(bignum{base}, bignum{exp}, bignum{mod}).low_u64(), expect);
  }
}

// Left-to-right square and multiply over mulmod (Knuth D): the reference
// the Montgomery ladder is pinned against.
bignum reference_powmod(const bignum& base, const bignum& exp, const bignum& m) {
  bignum result = bignum{1} % m;
  const bignum b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = bignum::mulmod(result, result, m);
    if (exp.bit(i)) result = bignum::mulmod(result, b, m);
  }
  return result;
}

TEST(Bignum, PowmodMontgomeryMatchesSquareAndMultiply) {
  // Odd moduli of 1..32 32-bit limbs (1..16 Montgomery words, half-full
  // top words included). Odd trials set the top 64 bits to all ones, so
  // products often land in [m, 2m) and take the final conditional
  // subtraction. Bases reach twice the modulus width (so base >= m);
  // exponents are 0, 1, a short random one and one as wide as m (capped
  // at 256 bits to keep the Knuth-D reference quick in Debug builds).
  rng r(12);
  for (std::size_t limbs = 1; limbs <= 32; ++limbs) {
    for (int trial = 0; trial < 4; ++trial) {
      bytes raw = r.random_bytes(4 * limbs);
      raw[0] |= 0x80;
      const std::size_t top = std::min<std::size_t>(8, raw.size());
      if (trial % 2 == 1) std::fill_n(raw.begin(), top, u8{0xFF});
      raw.back() |= 0x01;
      const bignum m = bignum::from_bytes(raw);
      const bignum base = random_big(r, 1 + r.below(8 * limbs));
      const bignum short_exp = random_big(r, 1 + r.below(8));
      const bignum wide_exp = random_big(r, std::min<std::size_t>(4 * limbs, 32));
      for (const bignum& e : {bignum{}, bignum{1}, short_exp, wide_exp}) {
        ASSERT_EQ(bignum::powmod(base, e, m), reference_powmod(base, e, m))
            << "m " << m.to_hex() << " base " << base.to_hex() << " exp " << e.to_hex();
      }
    }
  }
  // Extremes: the smallest odd modulus above 1, and all-ones moduli.
  for (const std::size_t ones : {1u, 8u, 16u, 24u}) {
    const bignum m = ones == 1 ? bignum{3} : bignum::from_hex(std::string(ones, 'f'));
    for (int trial = 0; trial < 8; ++trial) {
      const bignum base = random_big(r, 16);
      const bignum e = random_big(r, 1 + r.below(16));
      ASSERT_EQ(bignum::powmod(base, e, m), reference_powmod(base, e, m)) << m.to_hex();
    }
  }
}

TEST(Bignum, ModU32MatchesDivmod) {
  rng r(13);
  for (int i = 0; i < 200; ++i) {
    const bignum a = random_big(r, r.below(40));
    const u32 d = 1 + r.next_u32() % 0xFFFFFFFEu;
    EXPECT_EQ(bignum{a.mod_u32(d)}, a % bignum{d}) << a.to_hex() << " % " << d;
  }
  EXPECT_EQ(bignum::from_hex("10000000000000000").mod_u32(3), 1u);
  EXPECT_THROW((void)bignum{5}.mod_u32(0), std::domain_error);
}

TEST(Bignum, PowmodFermat) {
  // Fermat's little theorem for a decent-size prime: a^(p-1) = 1 mod p.
  const bignum p = bignum::from_hex("ffffffffffffffc5"); // largest 64-bit prime
  rng r(8);
  for (int i = 0; i < 10; ++i) {
    bignum a = random_big(r, 8) % p;
    if (a.is_zero()) a = bignum{2};
    EXPECT_EQ(bignum::powmod(a, p - bignum{1}, p), bignum{1});
  }
}

TEST(Bignum, GcdProperties) {
  EXPECT_EQ(bignum::gcd(bignum{12}, bignum{18}), bignum{6});
  EXPECT_EQ(bignum::gcd(bignum{17}, bignum{13}), bignum{1});
  EXPECT_EQ(bignum::gcd(bignum{}, bignum{5}), bignum{5});
  rng r(9);
  for (int i = 0; i < 20; ++i) {
    const bignum a = random_big(r, 12);
    const bignum b = random_big(r, 12);
    const bignum g = bignum::gcd(a, b);
    if (!g.is_zero()) {
      EXPECT_TRUE((a % g).is_zero());
      EXPECT_TRUE((b % g).is_zero());
    }
  }
}

TEST(Bignum, ModInverse) {
  rng r(10);
  const bignum m = bignum::from_hex("ffffffffffffffc5"); // prime modulus
  for (int i = 0; i < 30; ++i) {
    bignum a = random_big(r, 8) % m;
    if (a.is_zero()) a = bignum{3};
    const bignum inv = bignum::modinv(a, m);
    EXPECT_EQ(bignum::mulmod(a, inv, m), bignum{1});
  }
}

TEST(Bignum, ModInverseOfNonUnitThrows) {
  EXPECT_THROW((void)bignum::modinv(bignum{4}, bignum{8}), std::domain_error);
}

TEST(Bignum, MulModMatchesComposition) {
  rng r(11);
  const bignum m = random_big(r, 20) + bignum{5};
  for (int i = 0; i < 30; ++i) {
    const bignum a = random_big(r, 24);
    const bignum b = random_big(r, 24);
    EXPECT_EQ(bignum::mulmod(a, b, m), (a * b) % m);
  }
}

} // namespace
} // namespace buscrypt::crypto
