// SHA-256 (FIPS 180-4), HMAC-SHA256 (RFC 4231) and CBC-MAC tests.

#include "common/bitops.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/mac.hpp"

#include <gtest/gtest.h>

namespace buscrypt::crypto {
namespace {

std::string hash_hex(std::string_view msg) {
  const auto d = sha256::hash(
      std::span<const u8>(reinterpret_cast<const u8*>(msg.data()), msg.size()));
  return to_hex(d);
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  sha256 ctx;
  const bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  rng r(1);
  const bytes msg = r.random_bytes(10'000);
  sha256 ctx;
  std::size_t off = 0;
  while (off < msg.size()) {
    const std::size_t n = std::min<std::size_t>(1 + r.below(257), msg.size() - off);
    ctx.update(std::span<const u8>(msg).subspan(off, n));
    off += n;
  }
  EXPECT_EQ(ctx.digest(), sha256::hash(msg));
}

TEST(Sha256, PaddingBoundaries) {
  // Message lengths straddling the 55/56/64-byte padding edges.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const bytes msg(len, 0x5A);
    sha256 a;
    a.update(msg);
    EXPECT_EQ(a.digest(), sha256::hash(msg)) << len;
  }
}

TEST(Hmac, Rfc4231Case1) {
  const bytes key(20, 0x0b);
  const char* data = "Hi There";
  const auto mac = hmac_sha256(
      key, std::span<const u8>(reinterpret_cast<const u8*>(data), 8));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const char* key = "Jefe";
  const char* data = "what do ya want for nothing?";
  const auto mac = hmac_sha256(
      std::span<const u8>(reinterpret_cast<const u8*>(key), 4),
      std::span<const u8>(reinterpret_cast<const u8*>(data), 28));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const bytes key(20, 0xaa);
  const bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const bytes key(131, 0xaa);
  const char* data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const auto mac = hmac_sha256(
      key, std::span<const u8>(reinterpret_cast<const u8*>(data), 54));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, TruncatedTags) {
  rng r(2);
  const bytes key = r.random_bytes(16);
  const bytes msg = r.random_bytes(100);
  const auto full = hmac_sha256(key, msg);
  const bytes tag8 = hmac_sha256_tag(key, msg, 8);
  ASSERT_EQ(tag8.size(), 8u);
  EXPECT_TRUE(std::equal(tag8.begin(), tag8.end(), full.begin()));
  EXPECT_THROW((void)hmac_sha256_tag(key, msg, 0), std::invalid_argument);
  EXPECT_THROW((void)hmac_sha256_tag(key, msg, 33), std::invalid_argument);
}

// Textbook RFC 2104 over a materialised ipad||msg / opad||digest, with
// the key block built inline: the reference the midstate-caching object is
// pinned against.
std::array<u8, 32> reference_hmac(std::span<const u8> key, std::span<const u8> msg) {
  bytes k(64, 0);
  if (key.size() > 64) {
    const auto d = sha256::hash(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  bytes inner(64), outer(64);
  for (std::size_t i = 0; i < 64; ++i) {
    inner[i] = static_cast<u8>(k[i] ^ 0x36);
    outer[i] = static_cast<u8>(k[i] ^ 0x5c);
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const auto d = sha256::hash(inner);
  outer.insert(outer.end(), d.begin(), d.end());
  return sha256::hash(outer);
}

TEST(HmacKey, MatchesReferenceAcrossKeyAndMessageLengths) {
  // Key lengths straddle the 64-byte block (and 131 = RFC 4231's hashed
  // key); message lengths cover 0..200 including the 55/56/63/64 edges
  // where the inner digest's padding spills into a second block.
  rng r(5);
  const bytes msg = r.random_bytes(200);
  for (const std::size_t key_len : {0u, 1u, 16u, 63u, 64u, 65u, 131u}) {
    const bytes key = r.random_bytes(key_len);
    const hmac_sha256_key keyed(key);
    for (std::size_t len = 0; len <= msg.size(); ++len) {
      const std::span<const u8> m = std::span<const u8>(msg).first(len);
      const auto want = reference_hmac(key, m);
      ASSERT_EQ(keyed.mac(m), want) << "key " << key_len << " msg " << len;
      ASSERT_EQ(hmac_sha256(key, m), want) << "key " << key_len << " msg " << len;
      // head/body is a concatenation, wherever the split falls.
      const std::size_t split = len == 0 ? 0 : r.below(len + 1);
      ASSERT_EQ(keyed.mac(m.first(split), m.subspan(split)), want)
          << "key " << key_len << " msg " << len << " split " << split;
    }
  }
}

TEST(HmacKey, OneBlockEdgeMatchesReferenceAtEverySplit) {
  // 55 bytes is the longest message whose padding fits the last inner
  // block: 54 and 55 take the one-block kernel, 56 and 57 stream. Every
  // head/body split must pad the same concatenation.
  rng r(9);
  for (const std::size_t key_len : {16u, 64u, 131u}) {
    const bytes key = r.random_bytes(key_len);
    const hmac_sha256_key keyed(key);
    for (std::size_t len = 54; len <= 57; ++len) {
      const bytes msg = r.random_bytes(len);
      const auto want = reference_hmac(key, msg);
      const std::span<const u8> m(msg);
      for (std::size_t split = 0; split <= len; ++split)
        ASSERT_EQ(keyed.mac(m.first(split), m.subspan(split)), want)
            << "key " << key_len << " msg " << len << " split " << split;
    }
  }
}

TEST(HmacKey, TagsTruncateAndValidateLength) {
  rng r(6);
  const bytes key = r.random_bytes(16);
  const bytes head = r.random_bytes(16);
  const bytes body = r.random_bytes(32);
  const hmac_sha256_key keyed(key);
  bytes joined = head;
  joined.insert(joined.end(), body.begin(), body.end());
  EXPECT_EQ(keyed.tag(8, head, body), hmac_sha256_tag(key, joined, 8));
  EXPECT_EQ(keyed.tag(32, joined), hmac_sha256_tag(key, joined, 32));
  EXPECT_THROW((void)keyed.tag(0, joined), std::invalid_argument);
  EXPECT_THROW((void)keyed.tag(33, joined), std::invalid_argument);
}

// Digest of one message through an explicit kernel (FIPS 180-4 padding
// done by hand), so each kernel is checked even where sha256 would pick
// the other one.
std::array<u8, 32> digest_with(sha256_kernels::compress_fn kernel,
                               std::span<const u8> msg) {
  bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const u64 bits = u64{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<u8>(bits >> (8 * i)));
  sha256_kernels::state h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel(h, padded.data(), padded.size() / 64);
  std::array<u8, 32> out{};
  for (std::size_t i = 0; i < 8; ++i) store_be32(&out[4 * i], h[i]);
  return out;
}

TEST(Sha256Kernels, PortableKernelMatchesFipsVectors) {
  const auto portable = [](std::string_view msg) {
    return to_hex(digest_with(
        &sha256_kernels::compress_portable,
        std::span<const u8>(reinterpret_cast<const u8*>(msg.data()), msg.size())));
  };
  EXPECT_EQ(portable("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(portable("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  rng r(7);
  for (std::size_t len : {0u, 55u, 56u, 64u, 1000u}) {
    const bytes msg = r.random_bytes(len);
    EXPECT_EQ(digest_with(&sha256_kernels::compress_portable, msg), sha256::hash(msg))
        << len;
  }
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomBlocks) {
  const sha256_kernels::compress_fn ni = sha256_kernels::compress_shani();
  if (ni == nullptr) GTEST_SKIP() << "SHA-NI not available in this build or on this CPU";
  EXPECT_EQ(sha256_kernels::active(), ni);
  rng r(8);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nblocks = 1 + r.below(40);
    const bytes data = r.random_bytes(64 * nblocks);
    sha256_kernels::state a{};
    for (u32& w : a) w = r.next_u32();
    sha256_kernels::state b = a;
    sha256_kernels::compress_portable(a, data.data(), nblocks);
    ni(b, data.data(), nblocks);
    ASSERT_EQ(a, b) << "trial " << trial << " blocks " << nblocks;
  }
}

TEST(Sha256Kernels, OneBlockHmacShaNiMatchesPortable) {
  const sha256_kernels::hmac_block_fn ni = sha256_kernels::hmac_block_shani();
  if (ni == nullptr) GTEST_SKIP() << "SHA-NI not available in this build or on this CPU";
  EXPECT_EQ(sha256_kernels::hmac_block_active(), ni);
  rng r(10);
  for (std::size_t len = 0; len <= hmac_sha256_key::one_block_max; ++len) {
    for (int trial = 0; trial < 8; ++trial) {
      sha256_kernels::state inner{}, outer{};
      for (u32& w : inner) w = r.next_u32();
      for (u32& w : outer) w = r.next_u32();
      // The last inner block of a (64 + len)-byte message, padded.
      std::array<u8, sha256::block_size> last{};
      const bytes msg = r.random_bytes(len);
      std::copy(msg.begin(), msg.end(), last.begin());
      last[len] = 0x80;
      store_be64(&last[56], (64 + u64{len}) * 8);
      std::array<u8, 32> want{}, got{};
      sha256_kernels::hmac_block_portable(inner, outer, last.data(), want.data());
      ni(inner, outer, last.data(), got.data());
      ASSERT_EQ(got, want) << "len " << len << " trial " << trial;
    }
  }
}

TEST(CbcMac, DetectsAnyFlippedBit) {
  rng r(3);
  const aes c(r.random_bytes(16));
  bytes msg = r.random_bytes(64);
  const bytes tag = cbc_mac(c, msg);
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    msg[i] ^= 0x40;
    EXPECT_NE(cbc_mac(c, msg), tag) << i;
    msg[i] ^= 0x40;
  }
  EXPECT_EQ(cbc_mac(c, msg), tag);
}

TEST(CbcMac, RequiresBlockMultiple) {
  rng r(4);
  const aes c(r.random_bytes(16));
  EXPECT_THROW((void)cbc_mac(c, r.random_bytes(15)), std::invalid_argument);
}

TEST(TagEqual, ConstantTimeSemantics) {
  const bytes a = {1, 2, 3, 4};
  const bytes b = {1, 2, 3, 4};
  const bytes c = {1, 2, 3, 5};
  const bytes d = {1, 2, 3};
  EXPECT_TRUE(tag_equal(a, b));
  EXPECT_FALSE(tag_equal(a, c));
  EXPECT_FALSE(tag_equal(a, d));
}

} // namespace
} // namespace buscrypt::crypto
