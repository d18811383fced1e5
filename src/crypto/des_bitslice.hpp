#pragma once
/// \file des_bitslice.hpp
/// Bitsliced DES: independent 8-byte blocks are transposed into
/// one-bit-per-block lanes and all 16 rounds run as boolean circuits over
/// wide words — one "hardware gate" evaluated for a whole lane group at
/// once, the software analogue of the survey engines' wide datapaths
/// (Sealer's in-SRAM AES batches). IP, FP, the E expansion and the P
/// permutation all become free lane renamings; only the S-boxes cost
/// gates.
///
/// Lane groups come in four widths sharing one templated circuit: 64
/// blocks on plain u64 words, 128 on 2xu64 vectors (SSE2 on x86-64,
/// compiler-lowered elsewhere), and 256 / 512 on AVX2 / AVX-512 words in
/// separately-flagged translation units picked by runtime CPU dispatch.
/// Per gate op the wider words do 2/4/8 blocks for the same issue slot,
/// which is what carries the generic sum-of-minterms S-boxes past the
/// scalar SP tables (break-even is the AVX2 256-block group; see
/// k_min_wide_blocks).
///
/// The pass API exists for EDE: a 3DES call chains three keyed passes with
/// a single transpose in and out, because FP of one stage cancels the IP
/// of the next.

#include "common/types.hpp"

#include <cstddef>
#include <span>

namespace buscrypt::crypto {

struct des_schedule;

namespace bitslice {

/// Blocks per plain-u64 lane word; lane-group capacities are multiples of
/// this (64, 128, 256, 512 depending on build flags and host CPU).
inline constexpr std::size_t k_des_lanes = 64;

/// Smallest lane group that outruns the scalar SP tables. Measured on the
/// reference host (GCC 12, x86-64, AVX-512VL): single-DES MB/s scalar ~65
/// vs wide groups 64:51 / 128:307 / 256:434 / 512:487; 3DES scalar ~21
/// vs 64:19 / 128:181 / 256:267 / 512:316. The 64-block u64 group never
/// wins (no ternlog at scalar width), every vector group does — and still
/// does on the weakest supported host (plain SSE2 lowering measures
/// 128:76 vs 64 scalar for DES). wide_prefix() only deals in groups at
/// least this wide; the u64 kind stays available to des_crypt_wide for
/// direct callers' tails.
inline constexpr std::size_t k_min_wide_blocks = 128;

/// One keyed DES pass applied to the whole lane set. The schedule is
/// borrowed (not owned) and read-only, so shared immutable cores — e.g.
/// cached key schedules handed out across fleet worker threads — can be
/// used concurrently without copies.
struct des_pass {
  const des_schedule* schedule;
  bool decrypt;
};

/// How many leading blocks of an nblocks-long run the wide path will take
/// as full lane groups that beat the scalar SP tables on this host; the
/// caller runs the rest (possibly all of it) through its scalar tier.
/// Always a multiple of k_min_wide_blocks, possibly 0.
std::size_t wide_prefix(std::size_t nblocks) noexcept;

/// Run any number of independent 8-byte ECB blocks through the pass
/// sequence, chunked into lane groups widest-first. in.size() ==
/// out.size(), a non-zero multiple of 8; in and out may alias (each
/// group's input is fully loaded before anything is stored). A group
/// costs the same whether or not all its lanes are populated — callers
/// wanting the fast path for the tail should split at wide_prefix() and
/// run the remainder scalar (see des::encrypt_blocks).
void des_crypt_wide(std::span<const des_pass> passes, std::span<const u8> in,
                    std::span<u8> out);

} // namespace bitslice
} // namespace buscrypt::crypto
