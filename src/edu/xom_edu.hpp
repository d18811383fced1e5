#pragma once
/// \file xom_edu.hpp
/// The XOM project's cipher unit [13] as surveyed: "a pipelined AES ...
/// which features a low latency of 14 latency cycles, while a throughput
/// of one encrypted/decrypted data per clock cycle is claimed". The survey
/// notes the unit was benchmarked only by latency ("taking into account
/// only the latency doesn't inform about the overall system cost") — the
/// tab1 bench supplies exactly that missing system-level measurement.
///
/// Functionally it is a per-block AES engine between cache and memory
/// controller, i.e. block_edu in ECB with the pipelined-AES timing preset.

#include "edu/block_edu.hpp"

namespace buscrypt::edu {

/// XOM-style pipelined-AES EDU.
class xom_edu final : public block_edu {
 public:
  xom_edu(sim::memory_port& lower, const crypto::block_cipher& aes_cipher)
      : block_edu(lower, aes_cipher,
                  block_edu_config{block_mode::ecb, aes_pipelined(), 32}) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "XOM-AES"; }
};

} // namespace buscrypt::edu
