#pragma once
/// \file dallas_edu.hpp
/// The Dallas Semiconductor devices of Fig. 6.
///
/// dallas_byte_edu — the DS5002FP scheme: every byte enciphered
/// independently as a function of its address by a combinational cipher.
/// Near-zero latency and byte granularity (no read-modify-write, an 8-bit
/// part has no wider bus), but only 256 possible ciphertexts per location:
/// attack::kuhn breaks it exactly as Markus Kuhn broke the silicon.
///
/// dallas_des_edu — the DS5240 upgrade: "a true DES or 3-DES block cipher
/// which strengthened the robustness ... the 8-bit based ciphering passes
/// to 64-bit based ciphering", at the cost of an iterative DES core's
/// latency and the sub-block write penalty a 64-bit block implies.

#include "crypto/toy_cipher.hpp"
#include "edu/block_edu.hpp"
#include "sim/txn_batcher.hpp"

namespace buscrypt::edu {

/// DS5002FP-style byte-granular EDU.
class dallas_byte_edu final : public edu {
 public:
  dallas_byte_edu(sim::memory_port& lower, const crypto::byte_bus_cipher& cipher,
                  cycles per_access_cycles = 1)
      : edu(lower), cipher_(&cipher), per_access_(per_access_cycles) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "DS5002FP-byte";
  }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override {
    ++stats_.reads;
    const cycles mem = lower_->read(addr, out);
    cipher_->decrypt_range(addr, out, out);
    stats_.cipher_blocks += out.size();
    stats_.crypto_cycles += per_access_;
    return mem + per_access_;
  }

  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override {
    ++stats_.writes;
    sim::stack_window ct(in.size());
    cipher_->encrypt_range(addr, in, ct.span());
    stats_.cipher_blocks += in.size();
    stats_.crypto_cycles += per_access_;
    return lower_->write(addr, ct.span()) + per_access_;
  }

  /// Native batch path. The byte cipher has no alignment constraints, so
  /// every transaction batches: writes pre-encipher (combinational logic
  /// runs ahead of the bus), reads decipher as their beats land — the
  /// substitution streams with the burst, so only the per-access stage is
  /// chained after each arrival.
  void submit(std::span<sim::mem_txn> batch) override {
    note_batch(batch.size());
    sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
    for (sim::mem_txn& txn : batch) {
      b.begin_txn(txn);
      stats_.cipher_blocks += txn.data.size();
      stats_.crypto_cycles += per_access_;
      if (txn.is_write()) {
        ++stats_.writes;
        bytes& ct = b.scratch(txn.data.size());
        cipher_->encrypt_range(txn.addr, txn.data, ct);
        b.add_pre(per_access_);
        (void)b.queue(sim::txn_op::write, txn.master, txn.addr, ct);
      } else {
        ++stats_.reads;
        const std::size_t li = b.queue(sim::txn_op::read, txn.master, txn.addr, txn.data);
        b.add_gated(li, sim::txn_batcher::no_lower, per_access_,
                    [this, addr = txn.addr, data = txn.data] {
                      cipher_->decrypt_range(addr, data, data);
                    });
      }
    }
    b.flush();
    pending_txn_cycles_ += b.clock();
  }

 private:
  const crypto::byte_bus_cipher* cipher_;
  cycles per_access_;
};

/// DS5240-style 64-bit DES EDU.
class dallas_des_edu final : public block_edu {
 public:
  dallas_des_edu(sim::memory_port& lower, const crypto::block_cipher& des_cipher)
      : block_edu(lower, des_cipher,
                  block_edu_config{block_mode::ecb, des_iterative(), 32}) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "DS5240-DES"; }
};

} // namespace buscrypt::edu
