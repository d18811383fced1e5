#pragma once
/// \file cacheside_edu.hpp
/// The Fig. 7b placement Section 4 analyses and rejects: the EDU sits
/// between the CPU core and the cache, so "all the data contained in the
/// cache memory will be ciphered". Costs the survey calls out, all
/// modelled here:
///   - every cache access (hit or miss) pays the cipher stage:
///     "Modifying the cache access time directly impacts the system
///     performance";
///   - the key stream must be resident on-chip: "add an on-chip memory
///     equivalent to the cache memory in term of size";
///   - keystream regeneration on a miss must finish within the external
///     fetch time or it stalls further.

#include "crypto/modes.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"
#include "sim/cache.hpp"

namespace buscrypt::edu {

/// EDU between CPU and cache. The wrapped cache stores ciphertext; this
/// class XORs the keystream (a crypto::address_pad) on every access, the
/// XOR stage on the hit path. Keystream is tracked per cache line in a
/// model of the on-chip keystream RAM.
class cacheside_edu final : public edu {
 public:
  /// \param l1  the cache this EDU fronts (also its memory_port lower).
  /// \param prf block cipher generating the keystream; referenced.
  cacheside_edu(sim::cache& l1, const crypto::block_cipher& prf);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "CacheSide-OTP";
  }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path. The cipher stage sits on the CPU<->cache path, so
  /// there is no lower bus window to overlap — the cache serves the
  /// transactions in order exactly as scalar issue would. What a batch
  /// *can* overlap is the keystream RAM refills: each missed line's
  /// regeneration may run during any other miss's external fetch, so the
  /// window pays only the excess of the total regeneration over the total
  /// fetch time (pooled), where scalar issue pays each overrun alone.
  void submit(std::span<sim::mem_txn> batch) override;

  /// Size of the on-chip keystream RAM the scheme requires — by
  /// construction equal to the cache data array ("doubling the integrated
  /// memory size seems to be unaffordable").
  [[nodiscard]] std::size_t keystream_ram_bytes() const noexcept {
    return cache_->config().size;
  }

 private:
  /// One access through the (ciphertext) cache, shared by the scalar and
  /// batched paths: functional transform + cache time, plus the keystream
  /// refill this access owes and the fetch window it can hide behind
  /// (nonzero only when the touched line (re)entered the cache).
  struct access_io {
    cycles below = 0; ///< cache time + the per-access XOR stage
    cycles ks = 0;    ///< keystream regeneration owed
    cycles fetch = 0; ///< external-fetch window available to hide it
  };
  [[nodiscard]] access_io do_access(addr_t addr, std::span<u8> inout, bool is_write,
                                    std::span<const u8> wdata);
  [[nodiscard]] cycles access(addr_t addr, std::span<u8> inout, bool is_write,
                              std::span<const u8> wdata);
  void apply_pad(addr_t addr, std::span<u8> buf);

  static constexpr pipeline_model pad_core = aes_pipelined();
  static constexpr u64 tweak = 0xCAC4E51DEULL;

  sim::cache* cache_;
  crypto::address_pad pad_;
};

} // namespace buscrypt::edu
