// Mode-of-operation semantics: the ECB determinism weakness, CBC chaining,
// CTR seekability, PKCS#7, the address_pad the stream EDUs rely on, the
// one counter-block layout behind CTR, the pads and the CBC IVs, the one
// multi-chain CBC routine against textbook CBC, and the multi-unit CTR
// routine against one ctr_crypt per unit.

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "crypto/modes.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace buscrypt::crypto {
namespace {

/// A 32-byte-block cipher: wider than the on-stack counter/IV/pad block.
struct wide_cipher final : block_cipher {
  std::size_t block_size() const noexcept override { return 32; }
  std::string_view name() const noexcept override { return "wide"; }
  void encrypt_block(std::span<const u8>, std::span<u8>) const override {}
  void decrypt_block(std::span<const u8>, std::span<u8>) const override {}
};

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
  pad.apply(0x1000, a);
  pad.apply(0x1000, b);
  EXPECT_EQ(a, b);
}

TEST(AddressPad, DifferentAddressesDifferentPads) {
  rng r(11);
  const aes c(r.random_bytes(16));
  const address_pad pad(c, 0x1234);
  bytes a(32), b(32);
  pad.apply(0x1000, a);
  pad.apply(0x2000, b);
  EXPECT_NE(a, b);
}

TEST(AddressPad, UnalignedWindowsAreConsistent) {
  // pad(addr+k) must equal pad(addr)[k..]: the write-back path depends on
  // regenerating the exact pad for any sub-range.
  rng r(12);
  const aes c(r.random_bytes(16));
  const address_pad pad(c, 0x99);
  bytes whole(64);
  pad.apply(0x500, whole);
  for (std::size_t off : {1u, 7u, 15u, 16u, 17u, 31u}) {
    bytes part(64 - off);
    pad.apply(0x500 + off, part);
    EXPECT_TRUE(std::equal(part.begin(), part.end(),
                           whole.begin() + static_cast<std::ptrdiff_t>(off)))
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
  p1.apply(0, a);
  p2.apply(0, b);
  EXPECT_NE(a, b);
}

TEST(AddressPad, RejectsBlockWiderThanItsBuffer) {
  // The counter/pad block lives on the stack, max_block (16) bytes.
  const wide_cipher c{};
  EXPECT_THROW((void)address_pad(c, 0), std::invalid_argument);
}

// --- counter_block ------------------------------------------------------------

/// E_K(counter_block(hi, lo)): the pad or IV block an address derives.
bytes enciphered_counter(const block_cipher& c, u64 hi, u64 lo) {
  bytes b(c.block_size());
  counter_block(b, hi, lo);
  c.encrypt_block(b, b);
  return b;
}

TEST(CounterBlock, LayoutOfA16And8ByteBlock) {
  constexpr u64 hi = 0x0102030405060708ULL;
  constexpr u64 lo = 0xF0E0D0C0B0A09080ULL;
  std::array<u8, 16> wide{};
  wide.fill(0xFF); // every byte is written
  counter_block(wide, hi, lo);
  EXPECT_EQ(bytes(wide.begin(), wide.end()),
            (bytes{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, //
                   0xF0, 0xE0, 0xD0, 0xC0, 0xB0, 0xA0, 0x90, 0x80}));
  std::array<u8, 8> narrow{};
  narrow.fill(0xFF);
  counter_block(narrow, hi, lo);
  EXPECT_EQ(bytes(narrow.begin(), narrow.end()),
            (bytes{0xF1, 0xE2, 0xD3, 0xC4, 0xB5, 0xA6, 0x97, 0x88}));
}

/// One AES and one DES instance: the 16- and the 8-byte layout.
struct both_widths {
  rng r{40};
  aes a{r.random_bytes(16)};
  des d{r.random_bytes(8)};
  std::array<const block_cipher*, 2> ciphers{&a, &d};
};

TEST(CounterBlock, CtrKeystreamBlockIsTheEncipheredCounterBlock) {
  both_widths w;
  for (const block_cipher* c : w.ciphers) {
    SCOPED_TRACE(c->name());
    const std::size_t bs = c->block_size();
    constexpr u64 nonce = 0x42E5C0DE0D1E5EEDULL;
    constexpr u64 ctr0 = ~u64{0} - 1; // the counter wraps mid-run
    bytes ks(5 * bs - 3, 0);          // a zero input yields the keystream
    ctr_crypt(*c, nonce, ctr0, ks, ks);
    for (std::size_t i = 0; i * bs < ks.size(); ++i) {
      const bytes want = enciphered_counter(*c, nonce, ctr0 + i);
      const std::size_t n = std::min(bs, ks.size() - i * bs);
      EXPECT_TRUE(std::equal(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(n),
                             ks.begin() + static_cast<std::ptrdiff_t>(i * bs)))
          << "block " << i;
    }
  }
}

TEST(CounterBlock, AddressPadXorsTheEncipheredCounterBlock) {
  both_widths w;
  for (const block_cipher* c : w.ciphers) {
    SCOPED_TRACE(c->name());
    const std::size_t bs = c->block_size();
    constexpr u64 tweak = 0x57E4EA11C0DE5ULL;
    const address_pad pad(*c, tweak);
    constexpr addr_t addr = 0x1003; // unaligned start and end
    const bytes data = w.r.random_bytes(3 * bs);
    bytes buf = data;
    pad.apply(addr, buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const addr_t a = addr + i;
      const bytes p = enciphered_counter(*c, tweak, a / bs);
      EXPECT_EQ(buf[i], data[i] ^ p[a % bs]) << "byte " << i;
    }
  }
}

TEST(CounterBlock, CbcAtIsCbcUnderTheEncipheredCounterBlock) {
  both_widths w;
  for (const block_cipher* c : w.ciphers) {
    SCOPED_TRACE(c->name());
    constexpr u64 hi = 0x61C0DEULL ^ 0x400, lo = 7;
    const bytes iv = enciphered_counter(*c, hi, lo);
    const bytes pt = w.r.random_bytes(4 * c->block_size());
    bytes want(pt.size());
    cbc_encrypt(*c, iv, pt, want);
    bytes got = pt;
    cbc_encrypt_at(*c, hi, lo, got);
    EXPECT_EQ(got, want);

    const bytes ct = w.r.random_bytes(pt.size());
    cbc_decrypt(*c, iv, ct, want);
    got = ct;
    cbc_decrypt_at(*c, hi, lo, got);
    EXPECT_EQ(got, want);
  }
}

TEST(CounterBlock, CbcAtRejectsBlockWiderThanMaxBlock) {
  const wide_cipher c{};
  bytes chain(32);
  EXPECT_THROW(cbc_encrypt_at(c, 1, 2, chain), std::invalid_argument);
  EXPECT_THROW(cbc_decrypt_at(c, 1, 2, chain), std::invalid_argument);
}

// --- cbc_*_chains: the one CBC routine --------------------------------------

/// Textbook CBC, block by block: chain k of \p chain_len bytes starts from
/// the IV block k of \p ivs and feeds each ciphertext block forward.
bytes textbook_cbc(const block_cipher& c, std::span<const u8> ivs,
                   std::span<const u8> pt, std::size_t chain_len) {
  const std::size_t bs = c.block_size();
  bytes ct(pt.size());
  for (std::size_t k = 0; k * chain_len < pt.size(); ++k) {
    bytes prev(ivs.begin() + k * bs, ivs.begin() + (k + 1) * bs);
    for (std::size_t off = k * chain_len; off < (k + 1) * chain_len; off += bs) {
      for (std::size_t i = 0; i < bs; ++i) prev[i] ^= pt[off + i];
      c.encrypt_block(prev, prev);
      std::copy(prev.begin(), prev.end(), ct.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
  return ct;
}

/// In-place chains of every shape against textbook_cbc: one block, one
/// 32 B line, one 1 KiB segment and a 3-block chain (which straddles the
/// 4 KiB decrypt windows), 1, 2 and 300 of each, plus chains longer than
/// a window.
void check_chains_against_textbook(const block_cipher& c, rng& r) {
  const std::size_t bs = c.block_size();
  struct shape {
    std::size_t chain_len, chains;
  };
  std::vector<shape> shapes{{6 * 1024, 1}, {6 * 1024, 3}};
  for (const std::size_t len : {bs, std::size_t{32}, std::size_t{1024}, 3 * bs})
    for (const std::size_t n : {1, 2, 300}) shapes.push_back({len, n});
  for (const auto& [chain_len, chains] : shapes) {
    SCOPED_TRACE(testing::Message() << c.name() << ": " << chains << " chains of "
                                    << chain_len << " B");
    const bytes ivs = r.random_bytes(chains * bs);
    const bytes pt = r.random_bytes(chains * chain_len);
    const bytes want = textbook_cbc(c, ivs, pt, chain_len);
    bytes buf = pt;
    cbc_encrypt_chains(c, ivs, buf, chain_len);
    EXPECT_EQ(buf, want);
    cbc_decrypt_chains(c, ivs, buf, chain_len);
    EXPECT_EQ(buf, pt);
  }
}

TEST(CbcChains, AesMatchesTextbookPerChainCbc) {
  rng r(31);
  const aes c(r.random_bytes(16));
  check_chains_against_textbook(c, r);
}

TEST(CbcChains, TripleDesMatchesTextbookPerChainCbc) {
  rng r(32);
  const triple_des c(r.random_bytes(24));
  check_chains_against_textbook(c, r);
}

TEST(CbcChains, OneChainIsCbcUnderItsIv) {
  rng r(33);
  const aes c(r.random_bytes(16));
  const bytes iv = r.random_bytes(16);
  const bytes pt = r.random_bytes(5 * 1024);
  bytes want(pt.size());
  cbc_encrypt(c, iv, pt, want);
  EXPECT_EQ(want, textbook_cbc(c, iv, pt, pt.size()));
  bytes back(pt.size());
  cbc_decrypt(c, iv, want, back);
  EXPECT_EQ(back, pt);
}

TEST(CbcChains, RejectBadShapes) {
  rng r(34);
  const aes c(r.random_bytes(16));
  bytes buf(4 * 32);
  const bytes ivs = r.random_bytes(4 * 16);
  // One IV block per chain: 3 or 5 for 4 chains throw.
  EXPECT_THROW(cbc_encrypt_chains(c, std::span(ivs).first(48), buf, 32),
               std::invalid_argument);
  EXPECT_THROW(cbc_decrypt_chains(c, r.random_bytes(80), buf, 32), std::invalid_argument);
  // Chains of whole blocks that tile the buffer.
  EXPECT_THROW(cbc_encrypt_chains(c, ivs, buf, 24), std::invalid_argument);
  bytes ragged(4 * 32 + 16);
  EXPECT_THROW(cbc_decrypt_chains(c, ivs, ragged, 32), std::invalid_argument);
  EXPECT_THROW(cbc_encrypt_chains(c, ivs, buf, 0), std::invalid_argument);
  // Blocks wider than max_block.
  const wide_cipher wide{};
  bytes chain(64);
  const bytes wide_iv(32);
  EXPECT_THROW(cbc_encrypt_chains(wide, wide_iv, chain, 64), std::invalid_argument);
  EXPECT_THROW(cbc_decrypt_chains(wide, wide_iv, chain, 64), std::invalid_argument);
}

// --- ctr over units -----------------------------------------------------------

TEST(CtrUnits, KeystreamCrossesPadWindows) {
  // 9 KiB of keystream spans three 4 KiB pad windows.
  both_widths w;
  for (const block_cipher* c : w.ciphers) {
    SCOPED_TRACE(c->name());
    const std::size_t bs = c->block_size();
    constexpr u64 nonce = 0x7E57;
    bytes ks(9 * 1024 - 3, 0);
    ctr_crypt(*c, nonce, 5, ks, ks);
    for (std::size_t i = 0; i * bs < ks.size(); ++i) {
      const bytes want = enciphered_counter(*c, nonce, 5 + i);
      const std::size_t n = std::min(bs, ks.size() - i * bs);
      ASSERT_TRUE(std::equal(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(n),
                             ks.begin() + static_cast<std::ptrdiff_t>(i * bs)))
          << "block " << i;
    }
  }
}

/// ctr_crypt_units against one ctr_crypt per unit, out of place and in
/// place, for units shorter than a block, ragged, line-sized and longer
/// than a pad window, in runs that straddle windows.
void check_units_against_ctr_crypt(const block_cipher& c, rng& r) {
  constexpr u64 nonce = 0x42E5C0DE0D1E5EEDULL, first = u64{77} << 16, stride = 1 << 16;
  struct shape {
    std::size_t unit_len, units;
  };
  for (const auto& [unit_len, units] :
       {shape{1, 5000}, shape{20, 300}, shape{32, 200}, shape{4100, 3}, shape{32, 1}}) {
    SCOPED_TRACE(testing::Message() << c.name() << ": " << units << " units of "
                                    << unit_len << " B");
    const bytes pt = r.random_bytes(unit_len * units);
    bytes want(pt.size());
    for (std::size_t u = 0; u < units; ++u)
      ctr_crypt(c, nonce, first + u * stride,
                std::span(pt).subspan(u * unit_len, unit_len),
                std::span(want).subspan(u * unit_len, unit_len));
    bytes out(pt.size());
    ctr_crypt_units(c, nonce, first, stride, unit_len, pt, out);
    EXPECT_EQ(out, want);
    bytes buf = pt;
    ctr_crypt_units(c, nonce, first, stride, unit_len, buf, buf);
    EXPECT_EQ(buf, want);
  }
}

TEST(CtrUnits, AesMatchesOneCtrCryptPerUnit) {
  rng r(35);
  const aes c(r.random_bytes(16));
  check_units_against_ctr_crypt(c, r);
}

TEST(CtrUnits, TripleDesMatchesOneCtrCryptPerUnit) {
  rng r(36);
  const triple_des c(r.random_bytes(24));
  check_units_against_ctr_crypt(c, r);
}

TEST(CtrUnits, RejectBadShapes) {
  rng r(37);
  const aes c(r.random_bytes(16));
  bytes in(96), out(96), short_out(64);
  EXPECT_THROW(ctr_crypt_units(c, 1, 0, 1, 32, in, short_out), std::invalid_argument);
  EXPECT_THROW(ctr_crypt_units(c, 1, 0, 1, 40, in, out), std::invalid_argument);
  EXPECT_THROW(ctr_crypt_units(c, 1, 0, 1, 0, in, out), std::invalid_argument);
  bytes none;
  EXPECT_NO_THROW(ctr_crypt_units(c, 1, 0, 1, 0, none, none));
}

} // namespace
} // namespace buscrypt::crypto
