// Mode-of-operation semantics: the ECB determinism weakness, CBC chaining,
// CTR seekability, PKCS#7, and the address_pad the stream EDUs rely on.

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "crypto/modes.hpp"

#include <gtest/gtest.h>

namespace buscrypt::crypto {
namespace {

TEST(Ecb, IdenticalBlocksLeak) {
  // "a same data will be ciphered to the same value".
  rng r(1);
  const aes c(r.random_bytes(16));
  bytes pt(64, 0xAB); // four identical blocks
  bytes ct(64);
  ecb_encrypt(c, pt, ct);
  for (int blk = 1; blk < 4; ++blk)
    EXPECT_TRUE(std::equal(ct.begin(), ct.begin() + 16,
                           ct.begin() + 16 * blk));
}

TEST(Cbc, IdenticalBlocksDoNotLeak) {
  rng r(2);
  const aes c(r.random_bytes(16));
  const bytes iv = r.random_bytes(16);
  bytes pt(64, 0xAB);
  bytes ct(64);
  cbc_encrypt(c, iv, pt, ct);
  EXPECT_FALSE(std::equal(ct.begin(), ct.begin() + 16, ct.begin() + 16));
}

TEST(Cbc, IvChangesEverything) {
  rng r(3);
  const aes c(r.random_bytes(16));
  const bytes pt = r.random_bytes(64);
  bytes ct1(64), ct2(64);
  cbc_encrypt(c, r.random_bytes(16), pt, ct1);
  cbc_encrypt(c, r.random_bytes(16), pt, ct2);
  EXPECT_NE(ct1, ct2);
}

TEST(Cbc, ErrorPropagationIsLocal) {
  // Flipping ciphertext block k garbles plaintext blocks k and k+1 only —
  // why CBC *reads* are random-access but writes are not.
  rng r(4);
  const aes c(r.random_bytes(16));
  const bytes iv = r.random_bytes(16);
  const bytes pt = r.random_bytes(16 * 6);
  bytes ct(pt.size());
  cbc_encrypt(c, iv, pt, ct);

  ct[16 * 2 + 5] ^= 0x80; // corrupt block 2
  bytes back(pt.size());
  cbc_decrypt(c, iv, ct, back);

  EXPECT_TRUE(std::equal(back.begin(), back.begin() + 32, pt.begin()));    // 0,1 intact
  EXPECT_FALSE(std::equal(back.begin() + 32, back.begin() + 48, pt.begin() + 32));
  EXPECT_FALSE(std::equal(back.begin() + 48, back.begin() + 64, pt.begin() + 48));
  EXPECT_TRUE(std::equal(back.begin() + 64, back.end(), pt.begin() + 64)); // 4,5 intact
}

TEST(Modes, AliasSafety) {
  rng r(5);
  const aes c(r.random_bytes(16));
  const bytes iv = r.random_bytes(16);
  const bytes pt = r.random_bytes(128);

  bytes buf = pt;
  cbc_encrypt(c, iv, buf, buf);
  cbc_decrypt(c, iv, buf, buf);
  EXPECT_EQ(buf, pt);

  buf = pt;
  ecb_encrypt(c, buf, buf);
  ecb_decrypt(c, buf, buf);
  EXPECT_EQ(buf, pt);
}

TEST(Modes, RejectNonBlockMultiples) {
  rng r(6);
  const aes c(r.random_bytes(16));
  bytes odd(17), out(17);
  EXPECT_THROW(ecb_encrypt(c, odd, out), std::invalid_argument);
  EXPECT_THROW(cbc_encrypt(c, r.random_bytes(16), odd, out), std::invalid_argument);
  bytes iv_bad = r.random_bytes(8);
  bytes pt(16), ct(16);
  EXPECT_THROW(cbc_encrypt(c, iv_bad, pt, ct), std::invalid_argument);
}

TEST(Ctr, SeekableAndSymmetric) {
  rng r(7);
  const aes c(r.random_bytes(16));
  const bytes pt = r.random_bytes(100); // deliberately not block-multiple
  bytes ct(100), back(100);
  ctr_crypt(c, 0x1111, 0, pt, ct);
  ctr_crypt(c, 0x1111, 0, ct, back);
  EXPECT_EQ(back, pt);
  EXPECT_NE(ct, pt);
}

TEST(Ctr, WorksWith8ByteBlocks) {
  rng r(8);
  const des c(r.random_bytes(8));
  const bytes pt = r.random_bytes(50);
  bytes ct(50), back(50);
  ctr_crypt(c, 0x2222, 7, pt, ct);
  ctr_crypt(c, 0x2222, 7, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Pkcs7, RoundTripAllResidues) {
  rng r(9);
  for (std::size_t len = 0; len <= 33; ++len) {
    const bytes pt = r.random_bytes(len);
    const bytes padded = pkcs7_pad(pt, 16);
    EXPECT_EQ(padded.size() % 16, 0u);
    EXPECT_GT(padded.size(), pt.size());
    EXPECT_EQ(pkcs7_unpad(padded, 16), pt);
  }
}

TEST(Pkcs7, RejectsCorruptPadding) {
  bytes padded = pkcs7_pad(bytes{1, 2, 3}, 16);
  padded.back() = 0;
  EXPECT_THROW((void)pkcs7_unpad(padded, 16), std::invalid_argument);
  padded.back() = 17;
  EXPECT_THROW((void)pkcs7_unpad(padded, 16), std::invalid_argument);
  EXPECT_THROW((void)pkcs7_unpad(bytes{}, 16), std::invalid_argument);
}

TEST(AddressPad, DeterministicPerAddress) {
  rng r(10);
  const aes c(r.random_bytes(16));
  const address_pad pad(c, 0x1234);
  bytes a(64), b(64);
  pad.generate(0x1000, a);
  pad.generate(0x1000, b);
  EXPECT_EQ(a, b);
}

TEST(AddressPad, DifferentAddressesDifferentPads) {
  rng r(11);
  const aes c(r.random_bytes(16));
  const address_pad pad(c, 0x1234);
  bytes a(32), b(32);
  pad.generate(0x1000, a);
  pad.generate(0x2000, b);
  EXPECT_NE(a, b);
}

TEST(AddressPad, UnalignedWindowsAreConsistent) {
  // pad(addr+k) must equal pad(addr)[k..]: the write-back path depends on
  // regenerating the exact pad for any sub-range.
  rng r(12);
  const aes c(r.random_bytes(16));
  const address_pad pad(c, 0x99);
  bytes whole(64);
  pad.generate(0x500, whole);
  for (std::size_t off : {1u, 7u, 15u, 16u, 17u, 31u}) {
    bytes part(64 - off);
    pad.generate(0x500 + off, part);
    EXPECT_TRUE(std::equal(part.begin(), part.end(), whole.begin() + static_cast<std::ptrdiff_t>(off)))
        << off;
  }
}

TEST(AddressPad, BlocksCoveringCounts) {
  rng r(13);
  const aes c(r.random_bytes(16));
  const address_pad pad(c, 0);
  EXPECT_EQ(pad.blocks_covering(0, 0), 0u);
  EXPECT_EQ(pad.blocks_covering(0, 1), 1u);
  EXPECT_EQ(pad.blocks_covering(0, 16), 1u);
  EXPECT_EQ(pad.blocks_covering(0, 17), 2u);
  EXPECT_EQ(pad.blocks_covering(15, 2), 2u); // straddles a block edge
  EXPECT_EQ(pad.blocks_covering(8, 64), 5u);
}

TEST(AddressPad, TweakSeparatesDomains) {
  rng r(14);
  const aes c(r.random_bytes(16));
  const address_pad p1(c, 1), p2(c, 2);
  bytes a(32), b(32);
  p1.generate(0, a);
  p2.generate(0, b);
  EXPECT_NE(a, b);
}

TEST(AddressPad, RejectsBlockWiderThanItsBuffer) {
  // The counter and pad blocks live on the stack, max_block (16) bytes each.
  struct wide_cipher final : block_cipher {
    std::size_t block_size() const noexcept override { return 32; }
    std::string_view name() const noexcept override { return "wide"; }
    void encrypt_block(std::span<const u8>, std::span<u8>) const override {}
    void decrypt_block(std::span<const u8>, std::span<u8>) const override {}
  };
  const wide_cipher c{};
  EXPECT_THROW((void)address_pad(c, 0), std::invalid_argument);
}

} // namespace
} // namespace buscrypt::crypto
