#pragma once
/// \file edu.hpp
/// The Encryption/Decryption Unit (EDU) base: a memory_port decorator
/// sitting "between the cache and the external memory controller"
/// (Best's rule, Fig. 2c) — everything above it sees plaintext, everything
/// below it (bus, DRAM, probes, attackers) sees ciphertext.

#include "sim/granule.hpp"
#include "sim/memory_port.hpp"

#include <algorithm>
#include <span>
#include <string_view>

namespace buscrypt::edu {

/// Counters every EDU maintains, reported by the benches.
struct edu_stats {
  u64 reads = 0;
  u64 writes = 0;
  u64 cipher_blocks = 0;   ///< block-cipher invocations
  cycles crypto_cycles = 0; ///< cycles charged beyond the raw memory time
  u64 rmw_ops = 0;          ///< sub-block read-modify-write sequences
  u64 batches = 0;          ///< submit() calls served
  u64 batched_txns = 0;     ///< transactions carried by those batches
};

/// Base EDU. Derived classes implement the functional transform and the
/// timing policy; the plaintext baseline is plain_edu.
class edu : public sim::memory_port {
 public:
  explicit edu(sim::memory_port& lower) : lower_(&lower) {}

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Install a plaintext image into external memory through the encrypt
  /// path without charging simulation time (the paper's offline "memory
  /// content ciphering can be done offline"). Default: block-sized chunked
  /// writes with timing discarded.
  virtual void install_image(addr_t base, std::span<const u8> plain);

  /// Read back a plaintext view of memory through the decrypt path,
  /// without charging time (verification/test hook).
  virtual void read_image(addr_t base, std::span<u8> plain_out);

  [[nodiscard]] const edu_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Preferred transfer granularity for install_image chunking.
  [[nodiscard]] virtual std::size_t preferred_chunk() const noexcept { return 64; }

 protected:
  void note_batch(std::size_t txns) noexcept {
    ++stats_.batches;
    stats_.batched_txns += txns;
  }

  /// Sum of fn(address, granule) over the \p g-byte granules of a
  /// whole-granule \p cover at \p base: the line engines' per-line I/O.
  template <class Fn>
  [[nodiscard]] static cycles per_granule(addr_t base, std::span<u8> cover, std::size_t g,
                                          Fn&& fn) {
    cycles t = 0;
    sim::walk_granules(base, cover.size(), g,
                       [&](addr_t a, std::size_t, std::size_t n, std::size_t done) {
                         t += fn(a, cover.subspan(done, n));
                       });
    return t;
  }

  /// Read [addr, addr + out.size()) through its cover of \p g-byte
  /// granules: load(base, cover) fetches and deciphers it. A whole-granule
  /// request loads straight into \p out.
  template <class Load>
  [[nodiscard]] cycles read_cover(addr_t addr, std::span<u8> out, std::size_t g,
                                  Load&& load) {
    if (sim::whole_granules(addr, out.size(), g)) return load(addr, out);
    const sim::granule_cover c = sim::cover_of(addr, out.size(), g);
    sim::stack_window cover(c.len);
    const cycles t = load(c.base, cover.span());
    std::ranges::copy(cover.span().subspan(c.head, out.size()), out.begin());
    return t;
  }

  /// The survey's five-step sub-block write over the cover of \p g-byte
  /// granules: "Read the block from memory, Decipher it, Modify the
  /// corresponding sequence into the block, Re-cipher it, Write it back in
  /// memory." load(base, cover) reads and deciphers the cover, only when
  /// the request is not whole granules (one rmw_ops); store(base, cover)
  /// re-ciphers the merged cover in place and writes it back.
  template <class Load, class Store>
  [[nodiscard]] cycles write_cover(addr_t addr, std::span<const u8> in, std::size_t g,
                                   Load&& load, Store&& store) {
    if (sim::whole_granules(addr, in.size(), g)) {
      sim::stack_window cover(in);
      return store(addr, cover.span());
    }
    ++stats_.rmw_ops;
    const sim::granule_cover c = sim::cover_of(addr, in.size(), g);
    sim::stack_window cover(c.len);
    const cycles t = load(c.base, cover.span());
    std::ranges::copy(in, cover.span().subspan(c.head).begin());
    return t + store(c.base, cover.span());
  }

  sim::memory_port* lower_;
  edu_stats stats_;
};

} // namespace buscrypt::edu
