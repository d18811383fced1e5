#pragma once
/// \file bench_util.hpp
/// Shared helpers for the per-figure/per-table benchmark binaries.

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "edu/soc.hpp"
#include "sim/workload.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace buscrypt::bench {

/// Unified `--name V` handling for the tab*/fig* mains: removes every
/// `--name V` pair from argv, so later scans never see it, and returns the
/// last V (nullptr when the flag is absent). A `--name` without a value
/// exits 2.
inline const char* take_arg(int& argc, char** argv, const char* name) {
  const char* value = nullptr;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) {
      argv[w++] = argv[i];
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "%s needs a value\n", name);
      std::exit(2);
    }
  }
  argc = w;
  argv[argc] = nullptr;
  return value;
}

/// take_arg's value as a number (decimal/hex per strtoull base 0), or \p def
/// when the flag is absent.
inline u64 num_arg(int& argc, char** argv, const char* name, u64 def = 0) {
  const char* v = take_arg(argc, argv, name);
  return v == nullptr ? def : static_cast<u64>(std::strtoull(v, nullptr, 0));
}

/// Removes every bare `--name` switch from argv; true when there was one.
inline bool flag_arg(int& argc, char** argv, const char* name) {
  char** end = std::remove_if(argv + 1, argv + argc,
                              [name](const char* a) { return std::strcmp(a, name) == 0; });
  const bool found = end != argv + argc;
  argc = static_cast<int>(end - argv);
  argv[argc] = nullptr;
  return found;
}

/// `--seed N`, which every main takes. Benches derive every internal seed
/// from N such that the default reproduces every simulated figure of the
/// committed BENCH_*.json.
inline u64 seed_arg(int& argc, char** argv, u64 def = 0) {
  return num_arg(argc, argv, "--seed", def);
}

/// Exits 2 with a usage line when argv still holds an argument that no
/// *_arg call took.
inline void end_args(int argc, char** argv, const char* usage) {
  if (argc <= 1) return;
  std::fprintf(stderr, "usage: %s [--seed N] %s\n", argv[0], usage);
  std::exit(2);
}

/// Synthetic firmware image: word-aligned with the distribution real
/// instruction streams show — a heavily skewed opcode (high) half and
/// small, repetitive immediates (low half). The corpus every experiment
/// installs.
inline bytes firmware_image(std::size_t size, u64 seed) {
  rng r(seed);
  bytes img(size);
  static constexpr u16 opcodes[] = {0xE592, 0xE583, 0x4770, 0xB510,
                                    0x2000, 0xF000, 0x6800, 0x6001,
                                    0xE1A0, 0xE3A0, 0xEB00, 0xE59F};
  for (std::size_t off = 0; off + 4 <= size; off += 4) {
    // Zipf-ish opcode pick: low indices far more common.
    const u16 hi = opcodes[r.below(r.below(12) + 1)];
    u16 lo;
    if (r.chance(0.70)) lo = static_cast<u16>(r.below(256));       // small imm
    else if (r.chance(0.5)) lo = static_cast<u16>(r.below(4096));  // offsets
    else lo = static_cast<u16>(r.next_u32());                      // addresses
    store_le32(&img[off], (u32{hi} << 16) | lo);
  }
  return img;
}

/// The default SoC geometry used across experiments (embedded-class).
inline edu::soc_config default_soc() {
  edu::soc_config cfg;
  cfg.l1.size = 8 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 8u << 20;
  return cfg;
}

/// Build a SoC with \p kind, install \p image at 0 (and a zeroed data
/// region at 1 MiB), run \p w, return the stats.
inline sim::run_stats run_engine(edu::engine_kind kind, const sim::workload& w,
                                 const bytes& image,
                                 const edu::soc_config& cfg = default_soc()) {
  edu::secure_soc soc(kind, cfg);
  soc.load_image(0, image);
  if (w.footprint > 0) soc.load_image(1 << 20, bytes(std::min<std::size_t>(w.footprint, 2u << 20), 0));
  return soc.run(w);
}

/// Print a section header for a reproduced figure/table.
inline void banner(const std::string& title, const std::string& paper_anchor) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces: %s)\n\n", paper_anchor.c_str());
}

/// Host wall-clock timer for the simulator-speed fields every
/// BENCH_*.host.json sidecar carries: "host_ms" (wall time) and
/// "host_ops_per_sec" (simulated port operations retired per host second).
/// They depend on the machine, so they never enter the committed
/// BENCH_*.json (see bench_json.hpp).
class host_timer {
 public:
  host_timer() : t0_(std::chrono::steady_clock::now()) {}

  /// Milliseconds elapsed since construction.
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Simulated operations per host second (0 when the clock saw no time).
[[nodiscard]] inline double host_ops_per_sec(u64 ops, double ms) {
  return ms <= 0.0 ? 0.0 : static_cast<double>(ops) * 1000.0 / ms;
}

} // namespace buscrypt::bench
