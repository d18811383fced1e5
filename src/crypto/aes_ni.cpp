/// \file aes_ni.cpp
/// AES on the x86 AES-NI instructions. This translation unit alone is
/// compiled with -maes -msse4.1 (see CMakeLists) and is only entered after
/// the CPUID check in aes.cpp, so the library stays runnable on any x86-64.
///
/// Round key r is the 16 bytes at [16r, 16r + 16) of aes_kernels::schedule,
/// the byte order AESENC/AESDEC load, so the portable kernel's schedule is
/// this one's. AESDEC runs the same equivalent inverse cipher as the
/// portable decrypt, so the inverted schedule is that kernel's too. A run
/// goes through in groups of 8 blocks, the last group at its exact size:
/// the blocks of a group are independent, so their AESENCs overlap in the
/// pipelined AES unit even for a 32-byte line's 2 blocks.

#include "crypto/aes.hpp"

#include <immintrin.h>

namespace buscrypt::crypto::aes_kernels {

namespace {

inline __m128i load(const u8* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store(u8* p, __m128i v) noexcept {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// One AES-128 key-expansion round: word j of the next round key is the XOR
// of words 0..j of this one (the three shifted XORs) and
// SubWord(RotWord(w3)) ^ Rcon, which AESKEYGENASSIST leaves in its top word.
template <int Rcon>
inline __m128i next_round_key(__m128i key) noexcept {
  const __m128i assist = _mm_shuffle_epi32(_mm_aeskeygenassist_si128(key, Rcon), 0xFF);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

void expand_x86_aesni(std::span<const u8> key, schedule& enc) noexcept {
  if (key.size() != 16) { // AES-192 and AES-256 keep the portable expansion
    portable().expand(key, enc);
    return;
  }
  u8* rk = enc.data();
  __m128i k = load(key.data());
  store(rk, k);
  k = next_round_key<0x01>(k);
  store(rk + 16, k);
  k = next_round_key<0x02>(k);
  store(rk + 32, k);
  k = next_round_key<0x04>(k);
  store(rk + 48, k);
  k = next_round_key<0x08>(k);
  store(rk + 64, k);
  k = next_round_key<0x10>(k);
  store(rk + 80, k);
  k = next_round_key<0x20>(k);
  store(rk + 96, k);
  k = next_round_key<0x40>(k);
  store(rk + 112, k);
  k = next_round_key<0x80>(k);
  store(rk + 128, k);
  k = next_round_key<0x1B>(k);
  store(rk + 144, k);
  k = next_round_key<0x36>(k);
  store(rk + 160, k);
}

void invert_x86_aesni(const schedule& enc, int nr, schedule& dec) noexcept {
  store(dec.data(), load(enc.data() + 16 * nr));
  for (int r = 1; r < nr; ++r)
    store(dec.data() + 16 * r, _mm_aesimc_si128(load(enc.data() + 16 * (nr - r))));
  store(dec.data() + 16 * nr, load(enc.data()));
}

// N independent blocks through every round, one round key load per round.
template <int N, bool Encrypt>
[[gnu::always_inline]] inline void crypt_group(const u8* rk, int nr, const u8* in,
                                               u8* out) noexcept {
  __m128i b[N];
  const __m128i first = load(rk);
#pragma GCC unroll 8
  for (int j = 0; j < N; ++j) b[j] = _mm_xor_si128(load(in + 16 * j), first);
  for (int r = 1; r < nr; ++r) {
    const __m128i k = load(rk + 16 * r);
#pragma GCC unroll 8
    for (int j = 0; j < N; ++j)
      b[j] = Encrypt ? _mm_aesenc_si128(b[j], k) : _mm_aesdec_si128(b[j], k);
  }
  const __m128i last = load(rk + 16 * nr);
#pragma GCC unroll 8
  for (int j = 0; j < N; ++j)
    store(out + 16 * j,
          Encrypt ? _mm_aesenclast_si128(b[j], last) : _mm_aesdeclast_si128(b[j], last));
}

template <bool Encrypt>
void crypt_x86_aesni(const schedule& ks, int nr, const u8* in, u8* out,
                     std::size_t n) noexcept {
  const u8* rk = ks.data();
  for (; n >= 8; n -= 8, in += 128, out += 128) crypt_group<8, Encrypt>(rk, nr, in, out);
  switch (n) {
    case 7: crypt_group<7, Encrypt>(rk, nr, in, out); break;
    case 6: crypt_group<6, Encrypt>(rk, nr, in, out); break;
    case 5: crypt_group<5, Encrypt>(rk, nr, in, out); break;
    case 4: crypt_group<4, Encrypt>(rk, nr, in, out); break;
    case 3: crypt_group<3, Encrypt>(rk, nr, in, out); break;
    case 2: crypt_group<2, Encrypt>(rk, nr, in, out); break;
    case 1: crypt_group<1, Encrypt>(rk, nr, in, out); break;
    default: break;
  }
}

} // namespace

const kernel& x86_aesni() noexcept {
  static constexpr kernel k{&expand_x86_aesni, &invert_x86_aesni, &crypt_x86_aesni<true>,
                            &crypt_x86_aesni<false>};
  return k;
}

} // namespace buscrypt::crypto::aes_kernels
