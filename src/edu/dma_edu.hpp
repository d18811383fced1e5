#pragma once
/// \file dma_edu.hpp
/// The VLSI Technology patent engine (Fig. 4): "data transfers to and from
/// the external memory are done page-by-page. All CPU external requests
/// are managed by a secure DMA unit and communications between external
/// and internal memory use an encryption / decryption core. This system
/// allows the use of block cipher techniques (robustness)."
///
/// Model: a small set of on-chip page buffers. A request to a resident
/// page is an SRAM access; a miss DMAs the whole page through the cipher
/// core (and writes back the evicted page if dirty). The OS-trust caveat
/// ("viable provided that the OS is trusted") is a security note, not a
/// performance one — see README.

#include "crypto/block_cipher.hpp"
#include "edu/edu.hpp"
#include "edu/timing.hpp"

#include <vector>

namespace buscrypt::edu {

struct dma_edu_config {
  std::size_t page_bytes = 4096;
  unsigned n_buffers = 4;        ///< on-chip page buffers
};

/// Page-granular secure DMA engine with CBC-per-page ciphering; a page's
/// IV is E_K(counter_block(iv_tweak ^ page base, 0)).
class dma_edu final : public edu {
 public:
  dma_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
          dma_edu_config cfg);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "SecureDMA-page";
  }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  /// Native batch path. Page-fault traffic is what batches: every miss in
  /// the window queues its whole-page fill (and dirty-victim writeback)
  /// into one lower submission, so the DMA engine overlaps page transfers
  /// across DRAM banks, pre-enciphers evicted pages ahead of the bus and
  /// gates each fill's CBC decipher on its own burst arrival. Resident
  /// accesses stay SRAM-latency on-chip work. A victim whose contents are
  /// still in flight in the current window (pending fill or staged store)
  /// retires the window first, so writebacks always encrypt settled data.
  void submit(std::span<sim::mem_txn> batch) override;

  /// Write every dirty page buffer back (encrypting); returns cycles.
  [[nodiscard]] cycles flush();

  [[nodiscard]] u64 page_faults() const noexcept { return page_faults_; }
  [[nodiscard]] const dma_edu_config& config() const noexcept { return cfg_; }

 private:
  static constexpr cycles sram_latency = 2; ///< access into a resident page buffer
  static constexpr pipeline_model core = aes_pipelined();
  static constexpr u64 iv_tweak = 0xD41A5EC0DEULL;

  struct page_buffer {
    bool valid = false;
    bool dirty = false;
    addr_t base = 0;
    u64 last_used = 0;
    bytes data;
  };

  /// Make the page containing \p addr resident; returns (buffer, cycles).
  std::pair<page_buffer*, cycles> fault_in(addr_t page_base);
  [[nodiscard]] cycles encrypt_and_writeback(page_buffer& pb);
  void cipher_page(addr_t base, std::span<u8> buf, bool encrypt);

  /// Resident buffer for \p page_base, or nullptr (no LRU touch).
  [[nodiscard]] page_buffer* find_buffer(addr_t page_base) noexcept;
  /// Eviction choice: first invalid buffer, else least recently used.
  [[nodiscard]] page_buffer* pick_victim() noexcept;

  const crypto::block_cipher* cipher_;
  dma_edu_config cfg_;
  std::vector<page_buffer> buffers_;
  u64 tick_ = 0;
  u64 page_faults_ = 0;
};

} // namespace buscrypt::edu
