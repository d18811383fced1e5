// AES known-answer tests (FIPS-197 appendix C, NIST SP 800-38A) plus
// structural and property tests, and the two kernels pinned against each
// other.

#include "common/bitops.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/modes.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace buscrypt::crypto {
namespace {

bytes H(std::string_view s) { return from_hex(s); }

// --- FIPS-197 Appendix C example vectors ----------------------------------

TEST(Aes, Fips197Aes128) {
  const aes c(H("000102030405060708090a0b0c0d0e0f"));
  const bytes pt = H("00112233445566778899aabbccddeeff");
  bytes ct(16);
  c.encrypt_block(pt, ct);
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
  bytes back(16);
  c.decrypt_block(ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Fips197Aes192) {
  const aes c(H("000102030405060708090a0b0c0d0e0f1011121314151617"));
  const bytes pt = H("00112233445566778899aabbccddeeff");
  bytes ct(16);
  c.encrypt_block(pt, ct);
  EXPECT_EQ(to_hex(ct), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const aes c(H("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const bytes pt = H("00112233445566778899aabbccddeeff");
  bytes ct(16);
  c.encrypt_block(pt, ct);
  EXPECT_EQ(to_hex(ct), "8ea2b7ca516745bfeafc49904b496089");
}

// --- NIST SP 800-38A mode vectors (AES-128) --------------------------------

const char* k_sp800_key = "2b7e151628aed2a6abf7158809cf4f3c";
const char* k_sp800_pt =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

TEST(Aes, Sp800_38A_Ecb) {
  const aes c(H(k_sp800_key));
  const bytes pt = H(k_sp800_pt);
  bytes ct(pt.size());
  ecb_encrypt(c, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "3ad77bb40d7a3660a89ecaf32466ef97"
            "f5d3d58503b9699de785895a96fdbaaf"
            "43b1cd7f598ece23881b00e3ed030688"
            "7b0c785e27e8ad3f8223207104725dd4");
  bytes back(pt.size());
  ecb_decrypt(c, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Sp800_38A_Cbc) {
  const aes c(H(k_sp800_key));
  const bytes iv = H("000102030405060708090a0b0c0d0e0f");
  const bytes pt = H(k_sp800_pt);
  bytes ct(pt.size());
  cbc_encrypt(c, iv, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7");
  bytes back(pt.size());
  cbc_decrypt(c, iv, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes, Sp800_38A_Ctr) {
  const aes c(H(k_sp800_key));
  const bytes pt = H(k_sp800_pt);
  // SP 800-38A uses counter block f0f1...ff incrementing in the low bits;
  // reproduce it via nonce = top half, initial counter = bottom half.
  bytes ct(pt.size());
  ctr_crypt(c, 0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
  bytes back(pt.size());
  ctr_crypt(c, 0xf0f1f2f3f4f5f6f7ULL, 0xf8f9fafbfcfdfeffULL, ct, back);
  EXPECT_EQ(back, pt);
}

// --- structure -------------------------------------------------------------

TEST(Aes, RoundCounts) {
  rng r(1);
  EXPECT_EQ(aes(r.random_bytes(16)).rounds(), 10);
  EXPECT_EQ(aes(r.random_bytes(24)).rounds(), 12);
  EXPECT_EQ(aes(r.random_bytes(32)).rounds(), 14);
}

TEST(Aes, RejectsBadKeyLengths) {
  rng r(2);
  EXPECT_THROW(aes(r.random_bytes(15)), std::invalid_argument);
  EXPECT_THROW(aes(r.random_bytes(17)), std::invalid_argument);
  EXPECT_THROW(aes(r.random_bytes(0)), std::invalid_argument);
  EXPECT_THROW(aes(r.random_bytes(16), aes_bits::k256), std::invalid_argument);
}

TEST(Aes, RejectsBadBlockLengths) {
  rng r(3);
  const aes c(r.random_bytes(16));
  bytes small(8), out(16);
  EXPECT_THROW(c.encrypt_block(small, out), std::invalid_argument);
  EXPECT_THROW(c.decrypt_block(out, small), std::invalid_argument);
}

// Retained textbook InvMixColumns over GF(2^8): the reference the
// table-driven decrypt schedule is pinned against.
u8 gf_mul(u8 a, u8 b) {
  u8 p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = static_cast<u8>((a << 1) ^ ((a & 0x80) ? 0x1B : 0x00));
    b >>= 1;
  }
  return p;
}

u32 inv_mix_word_reference(u32 w) {
  const u8 a[4] = {static_cast<u8>(w >> 24), static_cast<u8>(w >> 16),
                   static_cast<u8>(w >> 8), static_cast<u8>(w)};
  static constexpr u8 m[4][4] = {
      {14, 11, 13, 9}, {9, 14, 11, 13}, {13, 9, 14, 11}, {11, 13, 9, 14}};
  u32 out = 0;
  for (int row = 0; row < 4; ++row) {
    u8 b = 0;
    for (int col = 0; col < 4; ++col) b ^= gf_mul(a[col], m[row][col]);
    out = (out << 8) | b;
  }
  return out;
}

TEST(Aes, DecryptScheduleMatchesGfReference) {
  // Equivalent inverse cipher: round keys reversed, inner ones passed
  // through InvMixColumns (FIPS-197 5.3.5).
  rng r(5);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    for (int trial = 0; trial < 32; ++trial) {
      const aes c(r.random_bytes(key_len));
      const std::vector<u32> enc = c.round_keys();
      const std::vector<u32> dec = c.decrypt_round_keys();
      const std::size_t nr = static_cast<std::size_t>(c.rounds());
      ASSERT_EQ(enc.size(), 4 * (nr + 1));
      ASSERT_EQ(dec.size(), enc.size());
      for (std::size_t round = 0; round <= nr; ++round)
        for (std::size_t j = 0; j < 4; ++j) {
          const u32 src = enc[4 * (nr - round) + j];
          const u32 want = round == 0 || round == nr ? src : inv_mix_word_reference(src);
          EXPECT_EQ(dec[4 * round + j], want)
              << key_len << " round " << round << " word " << j;
        }
    }
  }
}

TEST(Aes, InPlaceOperation) {
  rng r(4);
  const aes c(r.random_bytes(16));
  bytes buf = r.random_bytes(16);
  const bytes orig = buf;
  c.encrypt_block(buf, buf);
  EXPECT_NE(buf, orig);
  c.decrypt_block(buf, buf);
  EXPECT_EQ(buf, orig);
}

// --- properties across key widths ------------------------------------------

class AesProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesProperty, EncryptDecryptRoundTrip) {
  rng r(GetParam());
  const aes c(r.random_bytes(GetParam()));
  for (int i = 0; i < 64; ++i) {
    const bytes pt = r.random_bytes(16);
    bytes ct(16), back(16);
    c.encrypt_block(pt, ct);
    c.decrypt_block(ct, back);
    EXPECT_EQ(back, pt);
    EXPECT_NE(ct, pt);
  }
}

TEST_P(AesProperty, AvalancheNearHalfTheBits) {
  rng r(GetParam() + 100);
  const aes c(r.random_bytes(GetParam()));
  double total_flipped = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    bytes pt = r.random_bytes(16);
    bytes ct_a(16), ct_b(16);
    c.encrypt_block(pt, ct_a);
    pt[r.below(16)] ^= static_cast<u8>(1u << r.below(8));
    c.encrypt_block(pt, ct_b);
    total_flipped += static_cast<double>(hamming_bits(ct_a, ct_b));
  }
  const double mean = total_flipped / trials;
  EXPECT_NEAR(mean, 64.0, 6.0); // half of 128 bits
}

TEST_P(AesProperty, KeySensitivity) {
  rng r(GetParam() + 200);
  bytes key = r.random_bytes(GetParam());
  const bytes pt = r.random_bytes(16);
  bytes ct_a(16), ct_b(16);
  aes(key).encrypt_block(pt, ct_a);
  key[0] ^= 1;
  aes(key).encrypt_block(pt, ct_b);
  EXPECT_GE(hamming_bits(ct_a, ct_b), 40u);
}

INSTANTIATE_TEST_SUITE_P(AllKeyWidths, AesProperty,
                         ::testing::Values(std::size_t{16}, std::size_t{24},
                                           std::size_t{32}));

// --- kernels ---------------------------------------------------------------

int rounds_for(std::size_t key_len) { return static_cast<int>(key_len / 4 + 6); }

/// \p k's encryption and inverted schedules of \p key.
std::pair<aes_kernels::schedule, aes_kernels::schedule>
schedules_of(const aes_kernels::kernel& k, std::span<const u8> key) {
  aes_kernels::schedule enc{}, dec{};
  k.expand(key, enc);
  k.invert(enc, rounds_for(key.size()), dec);
  return {enc, dec};
}

TEST(AesKernels, PortableKernelPassesFips197AndSp800_38A) {
  // Called directly, so every host runs the T-table kernel on the vectors
  // even where crypto::aes runs AES-NI.
  const aes_kernels::kernel& k = aes_kernels::portable();
  const bytes pt = H("00112233445566778899aabbccddeeff");
  const std::pair<const char*, const char*> fips197[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"}};
  for (const auto& [key_hex, ct_hex] : fips197) {
    const bytes key = H(key_hex);
    const auto [enc, dec] = schedules_of(k, key);
    bytes ct(16), back(16);
    k.encrypt(enc, rounds_for(key.size()), pt.data(), ct.data(), 1);
    EXPECT_EQ(to_hex(ct), ct_hex);
    k.decrypt(dec, rounds_for(key.size()), ct.data(), back.data(), 1);
    EXPECT_EQ(back, pt);
  }
  // SP 800-38A F.1.1/F.1.2 (ECB-AES128): four blocks in one call each way.
  const bytes key = H(k_sp800_key);
  const auto [enc, dec] = schedules_of(k, key);
  const bytes blocks = H(k_sp800_pt);
  bytes ct(blocks.size()), back(blocks.size());
  k.encrypt(enc, 10, blocks.data(), ct.data(), 4);
  EXPECT_EQ(to_hex(ct),
            "3ad77bb40d7a3660a89ecaf32466ef97"
            "f5d3d58503b9699de785895a96fdbaaf"
            "43b1cd7f598ece23881b00e3ed030688"
            "7b0c785e27e8ad3f8223207104725dd4");
  k.decrypt(dec, 10, ct.data(), back.data(), 4);
  EXPECT_EQ(back, blocks);
}

TEST(AesKernels, AesNiSchedulesAreByteEqualToPortable) {
  const aes_kernels::kernel* ni = aes_kernels::aes_ni();
  if (ni == nullptr) GTEST_SKIP() << "no AES-NI kernel in this build or on this CPU";
  rng r(21);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    for (int trial = 0; trial < 16; ++trial) {
      const bytes key = r.random_bytes(key_len);
      const auto want = schedules_of(aes_kernels::portable(), key);
      const auto got = schedules_of(*ni, key);
      EXPECT_EQ(got.first, want.first) << key_len << "-byte key, encryption schedule";
      EXPECT_EQ(got.second, want.second) << key_len << "-byte key, decryption schedule";
    }
  }
}

TEST(AesKernels, AesNiKernelMatchesPortable) {
  // Runs of 1..33 blocks cover the 8-block groups and every tail size.
  const aes_kernels::kernel* ni = aes_kernels::aes_ni();
  if (ni == nullptr) GTEST_SKIP() << "no AES-NI kernel in this build or on this CPU";
  const aes_kernels::kernel& ref = aes_kernels::portable();
  rng r(22);
  for (const std::size_t key_len : {16u, 24u, 32u}) {
    const bytes key = r.random_bytes(key_len);
    const int nr = rounds_for(key_len);
    const auto [ref_enc, ref_dec] = schedules_of(ref, key);
    const auto [ni_enc, ni_dec] = schedules_of(*ni, key);
    for (std::size_t n = 1; n <= 33; ++n) {
      const bytes in = r.random_bytes(16 * n);
      for (const bool encrypt : {true, false}) {
        SCOPED_TRACE(testing::Message() << key_len << "-byte key, " << n << " blocks, "
                                        << (encrypt ? "encrypt" : "decrypt"));
        bytes want(in.size()), got(in.size());
        (encrypt ? ref.encrypt : ref.decrypt)(encrypt ? ref_enc : ref_dec, nr, in.data(),
                                              want.data(), n);
        const aes_kernels::crypt_fn crypt = encrypt ? ni->encrypt : ni->decrypt;
        const aes_kernels::schedule& ks = encrypt ? ni_enc : ni_dec;
        crypt(ks, nr, in.data(), got.data(), n);
        EXPECT_EQ(got, want) << "out of place";
        bytes buf = in;
        crypt(ks, nr, buf.data(), buf.data(), n);
        EXPECT_EQ(buf, want) << "in place";
      }
    }
  }
}

TEST(AesKernels, AddressPadApplyMatchesPerBlockReference) {
  // apply's bulk calls against a pad built one block per byte: pad byte
  // a is byte a % 16 of E_K(counter_block(tweak, a / 16)).
  rng r(23);
  const aes c(r.random_bytes(16));
  constexpr u64 tweak = 0x5EED'0F'ADD5ULL;
  const address_pad pad(c, tweak);
  auto check = [&](addr_t addr, std::size_t len) {
    const bytes data = r.random_bytes(len);
    bytes want = data;
    for (std::size_t i = 0; i < len; ++i) {
      std::array<u8, 16> block{};
      store_be64(block.data(), tweak);
      store_be64(block.data() + 8, (addr + i) / 16);
      c.encrypt_block(block, block);
      want[i] ^= block[(addr + i) % 16];
    }
    bytes got = data;
    pad.apply(addr, got);
    EXPECT_EQ(got, want) << "addr 0x" << std::hex << addr << std::dec << ", " << len
                         << " bytes";
  };
  for (const addr_t addr : {addr_t{0x1000}, addr_t{0x1007}, addr_t{0x100F}})
    for (std::size_t len = 1; len <= 70; ++len) check(addr, len);
  // Spans past one 4 KiB pad window.
  check(0x1007, 4096);
  check(0x1007, 9000);
}

} // namespace
} // namespace buscrypt::crypto
