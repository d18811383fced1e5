#pragma once
/// \file des_tables.hpp
/// FIPS 46-3 tables and constexpr helpers shared by the three DES datapaths
/// (reference, scalar SP-table, bitsliced). All tables are 1-based bit
/// positions counted from the most significant bit, exactly as printed in
/// the standard; everything derived from them is computed at compile time.

#include "crypto/des.hpp"

#include <array>

namespace buscrypt::crypto::des_detail {

constexpr std::array<u8, 64> k_ip = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr std::array<u8, 64> k_fp = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr std::array<u8, 48> k_e = {
    32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,  8,  9,  10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr std::array<u8, 32> k_p = {
    16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
    2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr std::array<u8, 56> k_pc1 = {
    57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
    10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
    14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr std::array<u8, 48> k_pc2 = {
    14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10, 23, 19, 12, 4,
    26, 8,  16, 7,  27, 20, 13, 2,  41, 52, 31, 37, 47, 55, 30, 40,
    51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr std::array<u8, 16> k_shifts = {1, 1, 2, 2, 2, 2, 2, 2,
                                         1, 2, 2, 2, 2, 2, 2, 1};

// S-boxes in the standard's row/column layout: row = outer bits (b5 b0),
// column = middle bits (b4 b3 b2 b1) of the 6-bit input.
constexpr u8 k_sboxes[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

/// Apply a FIPS-style permutation: output bit i (MSB-first, N bits wide)
/// takes input bit table[i] (1-based from MSB of an in_bits-wide value).
template <std::size_t N>
constexpr u64 permute(u64 in, const std::array<u8, N>& table, unsigned in_bits) noexcept {
  u64 out = 0;
  for (std::size_t i = 0; i < N; ++i) {
    out <<= 1;
    out |= (in >> (in_bits - table[i])) & 1;
  }
  return out;
}

/// S-box lookup by raw 6-bit input value (b5..b0 MSB-first), folding the
/// standard's row/column decode: row = b5 b0, column = b4 b3 b2 b1.
constexpr u8 sbox_at(int box, u32 six) noexcept {
  const u32 row = ((six & 0x20) >> 4) | (six & 0x01);
  const u32 col = (six >> 1) & 0x0F;
  return k_sboxes[box][row * 16 + col];
}

/// The 8 S-boxes re-indexed by raw 6-bit input, so the fast paths never
/// re-decode row/column at runtime.
constexpr std::array<std::array<u8, 64>, 8> make_sbox6() noexcept {
  std::array<std::array<u8, 64>, 8> t{};
  for (int box = 0; box < 8; ++box)
    for (u32 six = 0; six < 64; ++six)
      t[static_cast<std::size_t>(box)][six] = sbox_at(box, six);
  return t;
}
constexpr std::array<std::array<u8, 64>, 8> k_sbox6 = make_sbox6();

/// Inverse of P as a lane map: S-box output bit i (0-based over the 32
/// concatenated S-box bits) lands on f-output bit k_inv_p[i] (0-based,
/// MSB-first). Lets the bitsliced path apply P as a free lane renaming.
constexpr std::array<u8, 32> make_inv_p() noexcept {
  std::array<u8, 32> inv{};
  for (std::size_t o = 0; o < 32; ++o) inv[k_p[o] - 1] = static_cast<u8>(o);
  return inv;
}
constexpr std::array<u8, 32> k_inv_p = make_inv_p();

/// Expand an 8-byte key (loaded big-endian into \p key) into the chunked
/// schedule shared by the scalar SP path and the bitsliced path: PC-1,
/// sixteen C/D rotations, PC-2, then each 48-bit round key split into the
/// eight 6-bit S-box chunks it feeds.
constexpr des_schedule make_schedule(u64 key) noexcept {
  des_schedule s{};
  const u64 cd = permute(key, k_pc1, 64); // 56 bits: C (28) || D (28)
  u32 c = static_cast<u32>(cd >> 28) & 0x0FFFFFFF;
  u32 d = static_cast<u32>(cd) & 0x0FFFFFFF;
  for (int round = 0; round < 16; ++round) {
    const unsigned sh = k_shifts[static_cast<std::size_t>(round)];
    c = ((c << sh) | (c >> (28 - sh))) & 0x0FFFFFFF;
    d = ((d << sh) | (d >> (28 - sh))) & 0x0FFFFFFF;
    const u64 k48 = permute((u64{c} << 28) | u64{d}, k_pc2, 56);
    for (int b = 0; b < 8; ++b)
      s.k6[static_cast<std::size_t>(round)][static_cast<std::size_t>(b)] =
          static_cast<u8>((k48 >> (42 - 6 * b)) & 0x3F);
  }
  return s;
}

} // namespace buscrypt::crypto::des_detail
