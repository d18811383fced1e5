#pragma once
/// \file timing.hpp
/// The EDUs' timing vocabulary: the surveyed cipher cores of
/// sim/core_timing.hpp, which the keyslot engine's backends share, plus
/// the XOR stage the pad engines add after their keystream.

#include "sim/core_timing.hpp"

namespace buscrypt::edu {

using sim::aes_iterative;
using sim::aes_pipelined;
using sim::best_combinational;
using sim::des_iterative;
using sim::pipeline_model;
using sim::tdes_pipelined;

/// The XOR gate stage a pad engine (stream, cache-side, compress,
/// integrity) puts after its keystream.
inline constexpr cycles xor_cycles = 1;

} // namespace buscrypt::edu
