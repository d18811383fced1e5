#pragma once
/// \file des_bitslice_core.hpp
/// Internal bitsliced-DES circuit, templated on the lane word type. The
/// public des_crypt_wide entry (des_bitslice.cpp) instantiates it for u64
/// (64 blocks per group) and a 128-bit vector word (128 blocks); optional
/// translation units compiled with -mavx2 / -mavx512f instantiate 256- and
/// 512-block groups and are selected at runtime by CPU feature.
///
/// Everything here lives in an anonymous namespace on purpose: the AVX2
/// and AVX-512 translation units are compiled with wider ISA flags, and
/// any external-linkage inline/template symbol they emitted could be the
/// copy the linker keeps for *all* TUs — which would execute AVX-512
/// instructions on hosts the runtime dispatch ruled out. Internal linkage
/// gives each TU its own copies compiled with its own flags; only the
/// uniquely-named entry wrappers (des_crypt_group_*) are exported.

#include "crypto/des_bitslice.hpp"
#include "crypto/des_tables.hpp"

#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace buscrypt::crypto::bitslice {
namespace {

// Local big-endian 8-byte load/store: deliberately not bitops.hpp's inline
// functions, so no comdat symbol is shared with differently-flagged TUs.
inline u64 group_load_be64(const u8* p) noexcept {
  u64 v = 0;
  std::memcpy(&v, p, 8);
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  u64 r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | ((v >> (8 * i)) & 0xFF);
  return r;
#endif
}

inline void group_store_be64(u8* p, u64 v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  v = __builtin_bswap64(v);
#else
  u64 r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | ((v >> (8 * i)) & 0xFF);
  v = r;
#endif
  std::memcpy(p, &v, 8);
}

// In-place transpose of a 64x64 bit matrix (Hacker's Delight 7-3). Row i,
// column j is bit (63 - j) of a[i]; after the call, lane j holds in bit
// (63 - i) what row i held in column j. With rows loaded big-endian per
// block, lane j is FIPS bit j+1 across all 64 blocks.
inline void transpose64(u64 a[64]) noexcept {
  u64 m = 0x0000'0000'FFFF'FFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const u64 t = (a[k] ^ (a[k + j] >> j)) & m;
      a[k] ^= t;
      a[k + j] ^= t << j;
    }
  }
}

// Lane word accessors: V is either u64 (one 64-block word) or a GCC
// vector-extension type holding sizeof(V)/8 such words.
template <typename V> inline constexpr std::size_t words_of = sizeof(V) / sizeof(u64);

template <typename V> inline u64 get_word(const V& v, std::size_t w) noexcept {
  if constexpr (words_of<V> == 1)
    return v;
  else
    return v[w];
}

template <typename V> inline void set_word(V& v, std::size_t w, u64 x) noexcept {
  if constexpr (words_of<V> == 1)
    v = x;
  else
    v[w] = x;
}

// Whether this TU can evaluate an arbitrary 3-input boolean function on V
// in a single vpternlogq. AVX-512F covers the 64-byte word; the VL
// extension brings the same instruction to 16/32-byte words.
#if defined(__AVX512F__)
template <typename V>
inline constexpr bool k_has_ternlog = sizeof(V) == 64
#if defined(__AVX512VL__)
                                      || sizeof(V) == 16 || sizeof(V) == 32
#endif
    ;
#else
template <typename V> inline constexpr bool k_has_ternlog = false;
#endif

// ternlog<Imm>(a, b, c): per-bit lookup of Imm at index (a<<2)|(b<<1)|c.
// Only instantiated when k_has_ternlog<V> holds; the trailing return keeps
// the template parseable in TUs without the intrinsics.
template <u8 Imm, typename V>
inline V ternlog([[maybe_unused]] V a, [[maybe_unused]] V b,
                 [[maybe_unused]] V c) noexcept {
#if defined(__AVX512VL__)
  if constexpr (sizeof(V) == 16)
    return reinterpret_cast<V>(_mm_ternarylogic_epi64(
        reinterpret_cast<__m128i>(a), reinterpret_cast<__m128i>(b),
        reinterpret_cast<__m128i>(c), Imm));
  else if constexpr (sizeof(V) == 32)
    return reinterpret_cast<V>(_mm256_ternarylogic_epi64(
        reinterpret_cast<__m256i>(a), reinterpret_cast<__m256i>(b),
        reinterpret_cast<__m256i>(c), Imm));
  else
#endif
#if defined(__AVX512F__)
    if constexpr (sizeof(V) == 64)
    return reinterpret_cast<V>(_mm512_ternarylogic_epi64(
        reinterpret_cast<__m512i>(a), reinterpret_cast<__m512i>(b),
        reinterpret_cast<__m512i>(c), Imm));
#endif
  return V{};
}

// Selection mux a ? b : c as a ternlog immediate.
inline constexpr u8 k_mux_imm = 0xCA;

// Immediate for the S-box leaf function: output bit j of box `box` as a
// function of the low input triple (x3 x4 x5), with the high triple fixed
// at h. Bit k of the immediate is the output for x3x4x5 = k.
constexpr u8 leaf_imm(std::size_t box, std::size_t h, std::size_t j) noexcept {
  u8 imm = 0;
  for (std::size_t k = 0; k < 8; ++k)
    if ((des_detail::k_sbox6[box][h * 8 + k] >> (3 - j)) & 1)
      imm |= static_cast<u8>(1u << k);
  return imm;
}

template <std::size_t Box, std::size_t J, typename V, std::size_t... H>
inline void make_leaves(V (&t)[8], const V (&x)[6], std::index_sequence<H...>) noexcept {
  ((t[H] = ternlog<leaf_imm(Box, H, J)>(x[3], x[4], x[5])), ...);
}

// Output bit J of S-box Box: h = x0x1x2 selects among the eight leaf
// functions of x3x4x5; the mux levels consume h's bits LSB (x2) first.
template <std::size_t Box, std::size_t J, typename V>
inline V sbox_output(const V (&x)[6]) noexcept {
  V t[8];
  make_leaves<Box, J>(t, x, std::make_index_sequence<8>{});
  const V m0 = ternlog<k_mux_imm>(x[2], t[1], t[0]);
  const V m1 = ternlog<k_mux_imm>(x[2], t[3], t[2]);
  const V m2 = ternlog<k_mux_imm>(x[2], t[5], t[4]);
  const V m3 = ternlog<k_mux_imm>(x[2], t[7], t[6]);
  const V n0 = ternlog<k_mux_imm>(x[1], m1, m0);
  const V n1 = ternlog<k_mux_imm>(x[1], m3, m2);
  return ternlog<k_mux_imm>(x[0], n1, n0);
}

// One Feistel round over the lane set: l ^= f(r, k). The E expansion is
// the lane renaming (4b + j + 31) mod 32 (S-box b, input bit j reads R's
// FIPS bit 4b+j, wrapping 0 -> 32); the round key becomes eight 6-bit
// chunk masks expanded on the fly (the schedule stays 128 bytes and can be
// shared read-only across threads); each S-box is evaluated as a boolean
// circuit generated from the FIPS tables — correct by construction rather
// than a memorized optimized gate network; P is the k_inv_p lane renaming
// on the accumulate.
//
// Two circuit shapes, chosen per word type: with vpternlogq available,
// each output bit is eight one-op leaf functions of (x3 x4 x5) selected by
// a seven-mux Shannon tree over (x0 x1 x2) — 15 ops per output bit.
// Without it, a sum-of-minterms over the high/low input triples, unrolled
// at compile time so the surviving XOR-of-AND terms are straight-line
// vector code.
template <typename V>
inline void feistel_wide(V* l, const V* r, const std::array<u8, 8>& k) noexcept {
  using namespace des_detail;
  const auto one_box = [&]<std::size_t Box>() {
    const u8 kb = k[Box];
    V x[6];
    for (std::size_t j = 0; j < 6; ++j) {
      const std::size_t lane = (4 * Box + j + 31) % 32;
      const V kmask = (kb >> (5 - j)) & 1 ? ~V{} : V{};
      x[j] = r[lane] ^ kmask;
    }

    if constexpr (k_has_ternlog<V>) {
      l[k_inv_p[4 * Box + 0]] ^= sbox_output<Box, 0>(x);
      l[k_inv_p[4 * Box + 1]] ^= sbox_output<Box, 1>(x);
      l[k_inv_p[4 * Box + 2]] ^= sbox_output<Box, 2>(x);
      l[k_inv_p[4 * Box + 3]] ^= sbox_output<Box, 3>(x);
      return;
    }

    // Minterms of the high (x0 x1 x2) and low (x3 x4 x5) input triples.
    V hi[8], lo[8];
    {
      const V a0 = ~x[0] & ~x[1], a1 = ~x[0] & x[1], a2 = x[0] & ~x[1], a3 = x[0] & x[1];
      hi[0] = a0 & ~x[2];
      hi[1] = a0 & x[2];
      hi[2] = a1 & ~x[2];
      hi[3] = a1 & x[2];
      hi[4] = a2 & ~x[2];
      hi[5] = a2 & x[2];
      hi[6] = a3 & ~x[2];
      hi[7] = a3 & x[2];
      const V b0 = ~x[3] & ~x[4], b1 = ~x[3] & x[4], b2 = x[3] & ~x[4], b3 = x[3] & x[4];
      lo[0] = b0 & ~x[5];
      lo[1] = b0 & x[5];
      lo[2] = b1 & ~x[5];
      lo[3] = b1 & x[5];
      lo[4] = b2 & ~x[5];
      lo[5] = b2 & x[5];
      lo[6] = b3 & ~x[5];
      lo[7] = b3 & x[5];
    }

    // The accumulate is unrolled at compile time over the constexpr S-box
    // table so every surviving term is straight-line vector code — no
    // per-minterm branches or table loads on the hot path, and the
    // XOR-of-AND triples are exactly the shape AVX-512's vpternlogq
    // pattern-matcher fuses into single ops.
    V o0{}, o1{}, o2{}, o3{};
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ([&] {
        constexpr u8 v = k_sbox6[static_cast<std::size_t>(Box)][I];
        if constexpr (v != 0) {
          const V m = hi[I / 8] & lo[I % 8]; // raw six-bit input = h*8 + w
          if constexpr (v & 8) o0 ^= m;
          if constexpr (v & 4) o1 ^= m;
          if constexpr (v & 2) o2 ^= m;
          if constexpr (v & 1) o3 ^= m;
        }
      }(),
       ...);
    }(std::make_index_sequence<64>{});

    l[k_inv_p[4 * Box + 0]] ^= o0;
    l[k_inv_p[4 * Box + 1]] ^= o1;
    l[k_inv_p[4 * Box + 2]] ^= o2;
    l[k_inv_p[4 * Box + 3]] ^= o3;
  };
  [&]<std::size_t... B>(std::index_sequence<B...>) {
    (one_box.template operator()<B>(), ...);
  }(std::make_index_sequence<8>{});
}

// Run one lane group of 1..64*words_of<V> blocks through the pass
// sequence. in/out may alias (the input is fully loaded before anything is
// stored); unused lanes stay zero and cost the same as populated ones.
template <typename V>
void crypt_group(std::span<const des_pass> passes, std::span<const u8> in,
                 std::span<u8> out) {
  using namespace des_detail;
  constexpr std::size_t words = words_of<V>;
  const std::size_t n = in.size() / 8;

  // Load up front, one 64-block transpose per lane word.
  u64 blk[words][64] = {};
  for (std::size_t i = 0; i < n; ++i)
    blk[i / 64][i % 64] = group_load_be64(in.data() + i * 8);
  for (std::size_t w = 0; w < words; ++w) transpose64(blk[w]);

  // IP as a lane renaming into the two 32-lane halves.
  V half_a[32], half_b[32];
  V* l = half_a;
  V* r = half_b;
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t w = 0; w < words; ++w) {
      set_word(l[i], w, blk[w][k_ip[i] - 1]);
      set_word(r[i], w, blk[w][k_ip[32 + i] - 1]);
    }

  for (const des_pass& pass : passes) {
    for (int round = 0; round < 16; ++round) {
      const std::size_t ki = static_cast<std::size_t>(pass.decrypt ? 15 - round : round);
      feistel_wide(l, r, pass.schedule->k6[ki]);
      std::swap(l, r);
    }
    // The standard applies FP to (R16, L16); between EDE stages FP cancels
    // the next stage's IP, so a pass boundary is just this final swap.
    std::swap(l, r);
  }

  // FP as a lane renaming from the preoutput (first half = l, second = r).
  for (std::size_t j = 0; j < 64; ++j) {
    const unsigned src = k_fp[j];
    const V& v = src <= 32 ? l[src - 1] : r[src - 33];
    for (std::size_t w = 0; w < words; ++w) blk[w][j] = get_word(v, w);
  }
  for (std::size_t w = 0; w < words; ++w) transpose64(blk[w]);
  for (std::size_t i = 0; i < n; ++i)
    group_store_be64(out.data() + i * 8, blk[i / 64][i % 64]);
}

} // namespace
} // namespace buscrypt::crypto::bitslice
