#pragma once
/// \file block_edu.hpp
/// The classic Fig. 2c engine: a block cipher between cache and memory
/// controller. Supports ECB (deterministic — the weakness Section 2.2
/// names) and per-line CBC with an address-derived IV (the AEGIS fix that
/// restores random access while keeping chaining).
///
/// Sub-granule writes trigger the paper's five-step penalty: "Read the
/// block from memory, Decipher it, Modify the corresponding sequence into
/// the block, Re-cipher it, Write it back in memory."

#include "crypto/block_cipher.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

namespace buscrypt::edu {

enum class block_mode {
  ecb,      ///< independent blocks; same plaintext -> same ciphertext
  cbc_line, ///< CBC chained within each line-sized granule, IV = E(addr)
};

struct block_edu_config {
  block_mode mode = block_mode::ecb;
  pipeline_model core = aes_pipelined();
  std::size_t chain_bytes = 32; ///< CBC granule (cache-line sized)
};

/// Block-cipher EDU between cache and memory controller.
class block_edu : public edu {
 public:
  /// \param cipher functional core; referenced, not owned. Its
  ///        block_size() must equal cfg.core.block_bytes.
  block_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
            block_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override;

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path, shared by every block_edu-family engine (Best-STP,
  /// DS5240-DES, AES-ECB, AES-CBCline, XOM): granule-aligned writes are
  /// pre-enciphered up front so the (chained, for CBC) encrypt core runs
  /// ahead of the DRAM activate/CAS schedule, and the whole window ships
  /// as one lower submission (multi-bank overlap composes). Deciphers are
  /// serial-core work gated on each transaction's own data arrival: they
  /// pipeline against *later* fetches, and a single-transaction window
  /// degenerates to the scalar mem + crypto time. Sub-granule requests
  /// (the five-step RMW) detour through the scalar path in order.
  void submit(std::span<sim::mem_txn> batch) override;

  [[nodiscard]] std::size_t preferred_chunk() const noexcept override { return granule_; }
  [[nodiscard]] const block_edu_config& config() const noexcept { return cfg_; }

 private:
  /// En- or decipher one granule-aligned range in place.
  void crypt_range(addr_t addr, std::span<u8> buf, bool encrypt);
  /// Cycles charged for ciphering \p nbytes in that direction.
  [[nodiscard]] cycles crypt_time(std::size_t nbytes, bool encrypt) const noexcept;
  /// Fetch and decipher, or encipher in place and store, one
  /// granule-aligned cover; each returns its memory plus cipher cycles.
  [[nodiscard]] cycles load(addr_t base, std::span<u8> cover);
  [[nodiscard]] cycles store(addr_t base, std::span<u8> cover);

  const crypto::block_cipher* cipher_;
  block_edu_config cfg_;
  std::size_t granule_; ///< alignment unit: block (ECB) or chain (CBC)
  std::string name_;
};

} // namespace buscrypt::edu
