// Cross-implementation DES equivalence: the scalar SP-table fast path and
// the bitsliced 64-lane path must be bit-identical to the retained
// per-bit FIPS 46-3 reference for every key and block. Random sweeps here
// are deterministic (fixed xoshiro seeds) and wide enough that every one
// of the 2^6 S-box input rows is exercised many times over in every box
// and round (16 rounds x 8 boxes x thousands of blocks of uniform input).

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "crypto/des.hpp"
#include "crypto/des_bitslice.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace buscrypt::crypto {
namespace {

bytes random_bytes(rng& r, std::size_t n) {
  bytes b(n);
  r.fill(b);
  return b;
}

// The chunked schedule must keep the per-instance footprint of the packed
// 16 x u64 format it replaced: every programmed keyslot holds one.
static_assert(sizeof(des_schedule) == 16 * sizeof(u64),
              "des_schedule must not outgrow the packed 48-bit schedule");

TEST(DesEquivalence, ScalarFastMatchesReference) {
  rng r(0xDE5'0001);
  for (int k = 0; k < 64; ++k) {
    const bytes key = random_bytes(r, 8);
    const des fast(key);
    const des_reference ref(key);
    for (int i = 0; i < 32; ++i) {
      const u64 x = r.next_u64();
      EXPECT_EQ(fast.encrypt_u64(x), ref.encrypt_u64(x));
      EXPECT_EQ(fast.decrypt_u64(x), ref.decrypt_u64(x));
    }
  }
}

TEST(DesEquivalence, BitslicedMatchesReferenceEveryWidth) {
  rng r(0xDE5'0002);
  const bytes key = random_bytes(r, 8);
  const des fast(key);
  const des_reference ref(key);
  const bitslice::des_pass enc{&fast.schedule(), false};
  const bitslice::des_pass dec{&fast.schedule(), true};

  // Drive the wide circuit directly at every lane count 1..64, so the
  // tiering threshold in encrypt_blocks can't hide a narrow-width bug.
  for (std::size_t n = 1; n <= bitslice::k_des_lanes; ++n) {
    const bytes in = random_bytes(r, n * 8);
    bytes out(n * 8), expect(n * 8);
    bitslice::des_crypt_wide({&enc, 1}, in, out);
    ref.encrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "encrypt width " << n;
    bitslice::des_crypt_wide({&dec, 1}, in, out);
    ref.decrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "decrypt width " << n;
  }
}

TEST(DesEquivalence, WideGroupKindsMatchReference) {
  rng r(0xDE5'0005);
  const bytes key = random_bytes(r, 8);
  const des fast(key);
  const des_reference ref(key);
  const bitslice::des_pass enc{&fast.schedule(), false};
  const bitslice::des_pass dec{&fast.schedule(), true};

  // Widths chosen to exercise every lane-group kind the host dispatch can
  // pick — 128 (SSE2/VL), 256 (AVX2/VL), 512 (AVX-512F) — plus partial
  // groups, group boundaries +-1 and mixed full-group/remainder runs.
  // On hosts without the wider kinds the same widths fall through to
  // narrower groups, so the dispatch seams are covered either way.
  for (std::size_t n :
       {65u, 96u, 127u, 128u, 129u, 192u, 255u, 256u, 257u, 300u, 511u, 512u, 513u, 640u, 1024u}) {
    const bytes in = random_bytes(r, n * 8);
    bytes out(n * 8), expect(n * 8);
    bitslice::des_crypt_wide({&enc, 1}, in, out);
    ref.encrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "encrypt width " << n;
    bitslice::des_crypt_wide({&dec, 1}, in, out);
    ref.decrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "decrypt width " << n;
  }
}

TEST(TripleDesEquivalence, WideGroupKindsMatchReference) {
  rng r(0x3DE5'0003);
  const bytes key = random_bytes(r, 24);
  const triple_des fast(key);
  const triple_des_reference ref(key);
  // The EDE pass chain through each wide kind (one transpose in/out, three
  // keyed passes) against the per-stage reference.
  for (std::size_t n : {129u, 256u, 300u, 512u, 640u}) {
    const bytes in = random_bytes(r, n * 8);
    bytes out(n * 8), expect(n * 8);
    fast.encrypt_blocks(in, out);
    ref.encrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "3des encrypt width " << n;
    fast.decrypt_blocks(in, out);
    ref.decrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "3des decrypt width " << n;
  }
}

TEST(DesEquivalence, BulkTieringMatchesReference) {
  rng r(0xDE5'0003);
  const bytes key = random_bytes(r, 8);
  const des fast(key);
  const des_reference ref(key);
  // Sizes straddling the scalar/bitsliced split and the 64-lane chunking:
  // pure-scalar runs, exactly one full group, a full group plus a scalar
  // tail, and multi-group runs.
  for (std::size_t n : {1u, 7u, 47u, 48u, 63u, 64u, 65u, 100u, 127u, 128u, 200u}) {
    const bytes in = random_bytes(r, n * 8);
    bytes out(n * 8), expect(n * 8);
    fast.encrypt_blocks(in, out);
    ref.encrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "encrypt blocks " << n;
    fast.decrypt_blocks(in, out);
    ref.decrypt_blocks(in, expect);
    EXPECT_EQ(out, expect) << "decrypt blocks " << n;
  }
}

TEST(DesEquivalence, BulkInPlaceAliasing) {
  rng r(0xDE5'0004);
  const bytes key = random_bytes(r, 8);
  const des fast(key);
  const bytes in = random_bytes(r, 128 * 8);
  bytes expect(in.size());
  fast.encrypt_blocks(in, expect);
  bytes buf = in;
  fast.encrypt_blocks(buf, buf); // in == out must be supported
  EXPECT_EQ(buf, expect);
  fast.decrypt_blocks(buf, buf);
  EXPECT_EQ(buf, in);
}

TEST(TripleDesEquivalence, BitslicedEdeMatchesReference) {
  rng r(0x3DE5'0001);
  for (std::size_t key_len : {16u, 24u}) {
    const bytes key = random_bytes(r, key_len);
    const triple_des fast(key);
    const triple_des_reference ref(key);
    for (std::size_t n : {1u, 23u, 24u, 64u, 65u, 128u}) {
      const bytes in = random_bytes(r, n * 8);
      bytes out(n * 8), expect(n * 8);
      fast.encrypt_blocks(in, out);
      ref.encrypt_blocks(in, expect);
      EXPECT_EQ(out, expect) << "3des encrypt, key " << key_len << ", blocks " << n;
      fast.decrypt_blocks(in, out);
      ref.decrypt_blocks(in, expect);
      EXPECT_EQ(out, expect) << "3des decrypt, key " << key_len << ", blocks " << n;
    }
  }
}

TEST(TripleDesEquivalence, KeyingOptionEdges) {
  rng r(0x3DE5'0002);
  const bytes k1 = random_bytes(r, 8);

  // K1 == K2 == K3 degenerates to single DES — including through the
  // bitsliced bulk path, where the E-D-E pass sequence must cancel.
  bytes k111(k1);
  k111.insert(k111.end(), k1.begin(), k1.end());
  k111.insert(k111.end(), k1.begin(), k1.end());
  const triple_des degenerate(k111);
  const des single(k1);
  const bytes in = random_bytes(r, 64 * 8);
  bytes out3(in.size()), out1(in.size());
  degenerate.encrypt_blocks(in, out3);
  single.encrypt_blocks(in, out1);
  EXPECT_EQ(out3, out1);

  // 2-key EDE (K1,K2,K1) equals the explicit 3-key spelling of the same.
  const bytes k2 = random_bytes(r, 8);
  bytes two_key(k1);
  two_key.insert(two_key.end(), k2.begin(), k2.end());
  bytes three_key = two_key;
  three_key.insert(three_key.end(), k1.begin(), k1.end());
  const triple_des ede2(two_key);
  const triple_des ede3(three_key);
  bytes a(in.size()), b(in.size());
  ede2.encrypt_blocks(in, a);
  ede3.encrypt_blocks(in, b);
  EXPECT_EQ(a, b);
  ede2.decrypt_blocks(a, b);
  EXPECT_EQ(b, in);
}

} // namespace
} // namespace buscrypt::crypto
