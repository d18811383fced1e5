// Codec round-trips (including adversarial inputs), CodePack random access,
// and the entropy measurements behind the Fig. 8 claims.

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "compress/codepack.hpp"
#include <cmath>
#include "compress/entropy.hpp"
#include "compress/huffman.hpp"
#include "compress/lz77.hpp"
#include "compress/rle.hpp"
#include "crypto/aes.hpp"
#include "crypto/modes.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace buscrypt::compress {
namespace {

/// Synthetic "firmware": word-aligned, highly repetitive high halves —
/// the distribution CodePack targets.
bytes make_code_image(std::size_t words, u64 seed) {
  rng r(seed);
  bytes img(words * 4);
  static constexpr u16 opcodes[] = {0xE592, 0xE583, 0x4770, 0xB510,
                                    0x2000, 0xF000, 0x6800, 0x6001};
  for (std::size_t w = 0; w < words; ++w) {
    const u16 hi = opcodes[r.below(8)];
    const u16 lo = r.chance(0.6) ? static_cast<u16>(r.below(256))
                                 : static_cast<u16>(r.next_u32());
    store_le32(&img[w * 4], (u32{hi} << 16) | lo);
  }
  return img;
}

class CodecRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<codec> make() const {
    switch (GetParam()) {
      case 0: return std::make_unique<rle_codec>();
      case 1: return std::make_unique<huffman_codec>();
      case 2: return std::make_unique<lz77_codec>();
      default: return std::make_unique<codepack_codec>();
    }
  }
};

TEST_P(CodecRoundTrip, RandomData) {
  rng r(1);
  const auto c = make();
  for (std::size_t len : {0u, 1u, 2u, 3u, 100u, 4096u}) {
    const bytes in = r.random_bytes(len);
    EXPECT_EQ(c->decompress(c->compress(in)), in) << c->name() << " len=" << len;
  }
}

TEST_P(CodecRoundTrip, AllSameByte) {
  const auto c = make();
  const bytes in(5000, 0x00);
  EXPECT_EQ(c->decompress(c->compress(in)), in);
  const bytes in2(5000, 0xA5); // the RLE marker itself
  EXPECT_EQ(c->decompress(c->compress(in2)), in2);
}

TEST_P(CodecRoundTrip, CodeImage) {
  const auto c = make();
  const bytes img = make_code_image(4096, 7);
  const bytes packed = c->compress(img);
  EXPECT_EQ(c->decompress(packed), img);
}

TEST_P(CodecRoundTrip, MarkerHeavyInput) {
  rng r(2);
  bytes in(2000);
  for (auto& b : in) b = r.chance(0.5) ? u8{0xA5} : r.next_byte();
  const auto c = make();
  EXPECT_EQ(c->decompress(c->compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip, ::testing::Values(0, 1, 2, 3));

TEST(Rle, CompressesRuns) {
  const rle_codec c;
  const bytes runs(10'000, 0x00);
  EXPECT_LT(c.ratio_on(runs), 0.02);
}

TEST(Rle, ExpandsRandomOnlySlightly) {
  rng r(3);
  const rle_codec c;
  const bytes in = r.random_bytes(10'000);
  EXPECT_LT(c.ratio_on(in), 1.05);
}

TEST(Huffman, CompressesSkewedDistributions) {
  rng r(4);
  bytes in(20'000);
  for (auto& b : in) b = r.chance(0.8) ? 0x00 : r.next_byte();
  const huffman_codec c;
  EXPECT_LT(c.ratio_on(in), 0.6);
}

TEST(Huffman, CodeLengthsSatisfyKraft) {
  rng r(5);
  std::vector<u64> freq(256);
  for (auto& f : freq) f = r.below(1000);
  const auto lengths = huffman_code_lengths(freq);
  double kraft = 0;
  for (std::size_t s = 0; s < 256; ++s)
    if (lengths[s] != 0) kraft += std::pow(2.0, -static_cast<double>(lengths[s]));
  EXPECT_LE(kraft, 1.0 + 1e-9);
  EXPECT_GT(kraft, 0.99); // complete code
}

TEST(Huffman, SingleSymbolInput) {
  const huffman_codec c;
  const bytes in(100, 0x42);
  EXPECT_EQ(c.decompress(c.compress(in)), in);
}

TEST(Lz77, CompressesRepeatedStructure) {
  bytes in;
  const char* phrase = "the externally stored firmware image ";
  for (int i = 0; i < 300; ++i)
    in.insert(in.end(), phrase, phrase + 38);
  const lz77_codec c;
  EXPECT_LT(c.ratio_on(in), 0.15);
}

TEST(Lz77, RejectsCorruptStreams) {
  const lz77_codec c;
  EXPECT_THROW((void)c.decompress(bytes{1, 2}), std::invalid_argument);
  // A match that reaches before the start of output.
  bytes evil(4, 0);
  store_le32(evil.data(), 5);
  evil.push_back(0x01);
  evil.push_back(0xFF);
  evil.push_back(0x00);
  evil.push_back(5);
  EXPECT_THROW((void)c.decompress(evil), std::invalid_argument);
}

TEST(CodePack, DensityGainOnCode) {
  // The headline claim: "+35%" memory density on instruction streams.
  const bytes img = make_code_image(16'384, 11);
  const codepack engine(64);
  const auto packed = engine.compress_image(img);
  EXPECT_GT(packed.density_gain(), 0.20) << "compressed " << packed.compressed_size()
                                         << " of " << img.size();
  EXPECT_EQ(engine.decompress_all(packed), img);
}

TEST(CodePack, GroupRandomAccess) {
  const bytes img = make_code_image(1024, 13);
  const codepack engine(64);
  const auto packed = engine.compress_image(img);
  ASSERT_EQ(packed.group_bit_offsets.size(), img.size() / 64);
  // Decompress groups in scrambled order; each must match its slice.
  rng r(14);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t g = r.below(packed.group_bit_offsets.size());
    const bytes grp = engine.decompress_group(packed, g);
    ASSERT_EQ(grp.size(), 64u);
    EXPECT_TRUE(std::equal(grp.begin(), grp.end(), img.begin() + static_cast<std::ptrdiff_t>(g * 64)));
  }
}

TEST(CodePack, ChunkDecodeMatchesGroupDecode) {
  const bytes img = make_code_image(512, 15);
  const codepack engine(64);
  const auto packed = engine.compress_image(img);
  for (std::size_t g = 0; g < packed.group_bit_offsets.size(); ++g) {
    const std::size_t start_bit = packed.group_bit_offsets[g];
    const std::size_t end_bit = (g + 1 < packed.group_bit_offsets.size())
                                    ? packed.group_bit_offsets[g + 1]
                                    : packed.payload.size() * 8;
    const bytes chunk(packed.payload.begin() + static_cast<std::ptrdiff_t>(start_bit / 8),
                      packed.payload.begin() + static_cast<std::ptrdiff_t>((end_bit + 7) / 8));
    bytes out(64);
    engine.decompress_chunk(chunk, start_bit % 8, out, packed);
    EXPECT_EQ(out, engine.decompress_group(packed, g));
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           img.begin() + static_cast<std::ptrdiff_t>(g * 64)));
  }
}

TEST(CodePack, RejectsBadGeometry) {
  EXPECT_THROW(codepack(0), std::invalid_argument);
  EXPECT_THROW(codepack(65), std::invalid_argument);
  const codepack engine(64);
  EXPECT_THROW((void)engine.compress_image(bytes(10)), std::invalid_argument);
}

TEST(Entropy, OrderingOfKnownDistributions) {
  rng r(16);
  const bytes constant(8192, 7);
  bytes text;
  for (int i = 0; i < 1000; ++i) {
    const char* s = "entropy of english-like text ";
    text.insert(text.end(), s, s + 29);
  }
  const bytes random = r.random_bytes(8192);
  EXPECT_LT(shannon_entropy(constant), 0.01);
  EXPECT_LT(shannon_entropy(text), 5.0);
  EXPECT_GT(shannon_entropy(random), 7.9);
}

TEST(Entropy, CompressionRaisesEntropy) {
  // Section 4: "compression increases the message entropy".
  const bytes img = make_code_image(8192, 17);
  const huffman_codec c;
  const bytes packed = c.compress(img);
  EXPECT_GT(shannon_entropy(std::span<const u8>(packed).subspan(260)),
            shannon_entropy(img) + 0.5);
}

TEST(Entropy, EncryptedDataDoesNotCompress) {
  // Section 4: "compression will have a very poor ratio due to the strong
  // stochastic properties of encrypted data".
  rng r(18);
  const bytes img = make_code_image(8192, 19);
  const crypto::aes cipher(r.random_bytes(16));
  bytes ct(img.size());
  crypto::ctr_crypt(cipher, 1, 0, img, ct);

  const lz77_codec c;
  EXPECT_GT(c.ratio_on(ct), 0.98);                    // ciphertext does not compress
  EXPECT_LT(c.ratio_on(img), c.ratio_on(ct) - 0.15);  // plaintext clearly does
}

TEST(Entropy, ChiSquareSeparatesRandomFromStructured) {
  rng r(20);
  const bytes random = r.random_bytes(1 << 16);
  const double chi_rand = chi_square(random);
  EXPECT_GT(chi_rand, 180.0);
  EXPECT_LT(chi_rand, 340.0);
  const bytes structured(1 << 16, 0x11);
  EXPECT_GT(chi_square(structured), 1e6);
}

TEST(Entropy, SerialCorrelationDetectsSmoothness) {
  bytes ramp(4096);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<u8>(i / 16);
  EXPECT_GT(serial_correlation(ramp), 0.9);
  rng r(21);
  EXPECT_LT(std::abs(serial_correlation(r.random_bytes(1 << 16))), 0.02);
}

TEST(Entropy, RepeatedBlocksCensus) {
  bytes img(160, 0xEE);                 // 10 identical 16-byte blocks
  EXPECT_EQ(repeated_blocks(img, 16), 10u);
  rng r(22);
  const bytes rnd = r.random_bytes(160);
  EXPECT_EQ(repeated_blocks(rnd, 16), 0u);
}

} // namespace
} // namespace buscrypt::compress
