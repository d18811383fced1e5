/// \file sha256_shani.cpp
/// SHA-256 block compression on the x86 SHA extensions. This translation
/// unit alone is compiled with -msha -msse4.1 (see CMakeLists) and is only
/// entered after the CPUID check in sha256.cpp, so the library stays
/// runnable on any x86-64.
///
/// State layout: SHA256RNDS2 works on the working variables packed as
/// ABEF and CDGH (one 128-bit register each). Each call retires two rounds
/// using the two low message+constant words of its third operand;
/// SHA256MSG1/MSG2 compute the message schedule four words at a time.

#include "crypto/sha256.hpp"

#include <immintrin.h>

namespace buscrypt::crypto::sha256_kernels {

namespace {

// Byte order within each 32-bit word: the message is big-endian.
inline __m128i bswap_mask() noexcept {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
}

// h[0..7] in order (DCBA, HGFE) -> the ABEF/CDGH packing.
inline void load_state(const state& h, __m128i& abef, __m128i& cdgh) noexcept {
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[0]));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&h[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

// The inverse of load_state's packing: back to h[0..7] in order.
inline void unpack(__m128i abef, __m128i cdgh, __m128i& dcba, __m128i& hgfe) noexcept {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
}

// One block: 64 rounds plus the feed-forward. msg[g] holds W[4g .. 4g+3]
// on entry and is consumed as the message-schedule ring. Always inlined,
// so the one-block HMAC kernel keeps its state in registers throughout.
[[gnu::always_inline]] inline void block(__m128i& state0, __m128i& state1,
                                         __m128i (&msg)[4]) noexcept {
  const __m128i abef = state0;
  const __m128i cdgh = state1;
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    // msg[g % 4] holds schedule words W[4g .. 4g+3] for round group g.
    __m128i& cur = msg[g & 3];
    const __m128i k =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&round_constants[4 * g]));
    __m128i wk = _mm_add_epi32(cur, k);
    state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
    if (g >= 3 && g <= 14) {
      // Finish W[4(g+1) ..]: the W[t-7] term plus SHA256MSG2's sigma1.
      __m128i& next = msg[(g + 1) & 3];
      next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g + 3) & 3], 4));
      next = _mm_sha256msg2_epu32(next, cur);
    }
    wk = _mm_shuffle_epi32(wk, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
    // Start W[4(g+3) ..]: the W[t-16] + sigma0(W[t-15]) half.
    if (g >= 1 && g <= 12) {
      __m128i& prev = msg[(g + 3) & 3];
      prev = _mm_sha256msg1_epu32(prev, cur);
    }
  }
  state0 = _mm_add_epi32(state0, abef);
  state1 = _mm_add_epi32(state1, cdgh);
}

inline void load_block(const u8* p, __m128i (&msg)[4]) noexcept {
  const __m128i bswap = bswap_mask();
  for (int g = 0; g < 4; ++g)
    msg[g] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * g)), bswap);
}

} // namespace

void compress_x86_shani(state& h, const u8* blocks, std::size_t nblocks) noexcept {
  __m128i state0, state1;
  load_state(h, state0, state1);
  for (; nblocks != 0; --nblocks, blocks += sha256::block_size) {
    __m128i msg[4];
    load_block(blocks, msg);
    block(state0, state1, msg);
  }
  __m128i dcba, hgfe;
  unpack(state0, state1, dcba, hgfe);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&h[4]), hgfe);
}

void hmac_block_x86_shani(const state& inner, const state& outer, const u8* last,
                          u8* mac) noexcept {
  __m128i state0, state1;
  load_state(inner, state0, state1);
  __m128i msg[4];
  load_block(last, msg);
  block(state0, state1, msg);
  // The inner digest words, in order, are the outer block's W0..W7; the
  // rest is the fixed padding of a 96-byte message (opad block + digest).
  constexpr int outer_bits = (sha256::block_size + sha256::digest_size) * 8;
  unpack(state0, state1, msg[0], msg[1]);
  msg[2] = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
  msg[3] = _mm_set_epi32(outer_bits, 0, 0, 0);
  load_state(outer, state0, state1);
  block(state0, state1, msg);
  __m128i dcba, hgfe;
  unpack(state0, state1, dcba, hgfe);
  const __m128i bswap = bswap_mask();
  _mm_storeu_si128(reinterpret_cast<__m128i*>(mac), _mm_shuffle_epi8(dcba, bswap));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(mac + 16), _mm_shuffle_epi8(hgfe, bswap));
}

} // namespace buscrypt::crypto::sha256_kernels
