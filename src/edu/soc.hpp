#pragma once
/// \file soc.hpp
/// One-stop assembly of the full system under study: CPU -> L1 cache ->
/// EDU -> memory controller/bus -> external DRAM, with probe taps on the
/// bus. Every engine the survey covers can be instantiated by name, so the
/// benches and tests can sweep the whole design space uniformly.

#include "crypto/block_cipher.hpp"
#include "crypto/toy_cipher.hpp"
#include "edu/edu.hpp"
#include "edu/names.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "engine/eviction_policy.hpp"
#include "engine/memory_authenticator.hpp"
#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/cpu.hpp"
#include "sim/interconnect.hpp"
#include "sim/workload.hpp"

#include <functional>

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace buscrypt::edu {

/// Every engine in the survey, plus the plaintext baseline.
enum class engine_kind {
  plaintext,       ///< no protection (Section 1 status quo)
  best_stp,        ///< Best's patent cipher (Fig. 3)
  dallas_byte,     ///< DS5002FP byte cipher (Fig. 6, old)
  dallas_des,      ///< DS5240 64-bit DES (Fig. 6, new)
  block_ecb_aes,   ///< generic AES-ECB between cache and MC (Fig. 2c)
  block_cbc_aes,   ///< per-line CBC AES with address IV
  xom_aes,         ///< XOM pipelined AES [13]
  aegis_cbc,       ///< AEGIS per-line CBC with counter IVs [14]
  gilmont_3des,    ///< Gilmont fetch-predicted 3DES [3]
  gi_3des_cbc,     ///< General Instrument 3DES-CBC + keyed hash (Fig. 5)
  stream_otp,      ///< stream/OTP EDU, keystream parallel to fetch (Fig. 2a)
  stream_serial,   ///< ablation: keystream NOT parallelised
  secure_dma,      ///< VLSI page-by-page secure DMA (Fig. 4)
  cacheside_otp,   ///< EDU between CPU and cache (Fig. 7b)
  compress_otp,    ///< compression + encryption (Fig. 8)
  inline_keyslot,  ///< unified keyslot engine (engine/), AES-CTR default
};

/// Printable engine name (matches each EDU's name()). Compile-time so the
/// benches and tests can static_assert on it.
[[nodiscard]] constexpr std::string_view engine_name(engine_kind kind) noexcept {
  switch (kind) {
    case engine_kind::plaintext: return "plaintext";
    case engine_kind::best_stp: return "Best-STP";
    case engine_kind::dallas_byte: return "DS5002FP-byte";
    case engine_kind::dallas_des: return "DS5240-DES";
    case engine_kind::block_ecb_aes: return "AES-ECB";
    case engine_kind::block_cbc_aes: return "AES-CBCline";
    case engine_kind::xom_aes: return "XOM-AES";
    case engine_kind::aegis_cbc: return "AEGIS-AES-CBC";
    case engine_kind::gilmont_3des: return "Gilmont-3DES";
    case engine_kind::gi_3des_cbc: return "GI-3DES-CBC+MAC";
    case engine_kind::stream_otp: return "Stream-OTP";
    case engine_kind::stream_serial: return "Stream-serial";
    case engine_kind::secure_dma: return "SecureDMA-page";
    case engine_kind::cacheside_otp: return "CacheSide-OTP";
    case engine_kind::compress_otp: return "Compress+OTP";
    case engine_kind::inline_keyslot: return keyslot_default_name;
  }
  return "?";
}

/// Every kind, in survey order — the sweep table, fixed at compile time.
inline constexpr std::array<engine_kind, 16> all_engine_kinds = {
    engine_kind::plaintext,     engine_kind::best_stp,
    engine_kind::dallas_byte,   engine_kind::dallas_des,
    engine_kind::block_ecb_aes, engine_kind::block_cbc_aes,
    engine_kind::xom_aes,       engine_kind::aegis_cbc,
    engine_kind::gilmont_3des,  engine_kind::gi_3des_cbc,
    engine_kind::stream_otp,    engine_kind::stream_serial,
    engine_kind::secure_dma,    engine_kind::cacheside_otp,
    engine_kind::compress_otp,  engine_kind::inline_keyslot,
};

/// All kinds, in survey order — for sweeps.
[[nodiscard]] constexpr const std::array<engine_kind, 16>& all_engines() noexcept {
  return all_engine_kinds;
}

/// Role of a bus master in a multi-master scenario: sets the default
/// display name and transaction granularity (a DMA engine moves whole
/// bursts; CPU and peripheral traffic is line-granular).
enum class master_kind : u8 { cpu, dma, peripheral };

[[nodiscard]] constexpr std::string_view master_kind_name(master_kind k) noexcept {
  switch (k) {
    case master_kind::cpu: return "cpu";
    case master_kind::dma: return "dma";
    case master_kind::peripheral: return "periph";
  }
  return "?";
}

/// One master of a multi-master run: who it is, what it issues, and how
/// the arbiter and the engine's protection domains should treat it.
/// Master ids are assigned by position in the span handed to
/// run_topology (index 0 = sim::cpu_master).
struct master_desc {
  master_kind role = master_kind::cpu;
  std::string name;      ///< display name; role default when empty
  sim::workload work;    ///< this master's request stream
  unsigned priority = 0; ///< higher wins under fixed-priority arbitration
  std::size_t chunk = 0; ///< txn granularity in bytes; 0 = role default
                         ///< (L1 line; 4 lines for dma)
  /// Keyslot engines only: bind [domain_base, domain_base + domain_len)
  /// as this master's private protection domain under its own key,
  /// derived deterministically from the SoC seed and domain_base (so a
  /// solo re-run of the same descriptor produces identical ciphertext).
  /// domain_len == 0 shares the SoC's default context. Ignored — traffic
  /// stays on the shared mapping — for every non-keyslot engine.
  addr_t domain_base = 0;
  std::size_t domain_len = 0;
};

/// What one topology run measured: the interconnect view (tree, QoS,
/// reconfiguration latency) plus the engine-side security accounting,
/// collected before the run's domains are torn down.
struct topology_run_stats {
  sim::interconnect_stats noc;
  /// Per-master firewall counters by master index — per-rule hit/deny
  /// breakdowns for programmed ports, all-zero entries for open ones.
  std::vector<sim::fw_master_stats> firewall;
  u64 sentinel_denials = 0; ///< forged any_master transactions refused
  /// Keyslot engine only: per-master protected-region traffic and
  /// denials, by master index (empty for every other engine).
  std::vector<engine::domain_stats> domains;

  [[nodiscard]] double bytes_per_cycle() const noexcept {
    return noc.bus.bytes_per_cycle();
  }
};

struct soc_config {
  sim::cache_config l1{};
  sim::dram_timing mem_timing{};
  std::size_t mem_size = 8u << 20;
  u64 key_seed = 0x5EC5EEDULL; ///< deterministic key material derivation
  /// Harvard L1: two caches of l1.size/2 each (fetches vs data) over the
  /// same EDU. Ignored by the cacheside_otp engine (which wraps one cache).
  bool split_l1 = false;
  /// inline_keyslot only: cipher backend of the default context; empty =
  /// keyslot_default_backend. The tab9 auth sweep uses this axis.
  std::string keyslot_backend;
  /// inline_keyslot only: authentication of [0, keyslot_auth_limit) on the
  /// default context (auth_mode::none attaches no authenticator). Tags/tree
  /// nodes live at keyslot_auth_tag_base, outside every workload's range.
  engine::auth_mode keyslot_auth = engine::auth_mode::none;
  addr_t keyslot_auth_limit = 1u << 19;
  addr_t keyslot_auth_tag_base = 6u << 20;
  /// inline_keyslot only: slot-pool victim policy and pool size (0 keeps
  /// the engine_edu default). Policies trade telemetry/timing under
  /// context churn; the datapath bytes are policy-invariant.
  engine::slot_policy keyslot_policy = engine::slot_policy::lru;
  unsigned keyslot_slots = 0;
  /// Interconnect shape for run_topology(masters): clusters, QoS classes
  /// and firewall rule tables. With no clusters every master sits on one
  /// flat shared bus; with no tables no firewall is attached.
  sim::topology topology{};
};

/// The assembled system. Owns every component; wiring depends on the
/// engine (cacheside_otp puts the EDU above the cache, everything else
/// below it).
class secure_soc {
 public:
  secure_soc(engine_kind kind, const soc_config& cfg);

  /// Install a plaintext image through the engine's offline encrypt path.
  void load_image(addr_t base, std::span<const u8> plain);

  /// Decrypted view of memory via the engine (test/verification hook).
  [[nodiscard]] bytes read_back(addr_t base, std::size_t len);

  /// Execute a workload; stats are cumulative per-run.
  [[nodiscard]] sim::run_stats run(const sim::workload& w);

  /// Drive the engine directly (no CPU/L1 in the way) with line-granular
  /// transactions lowered from \p w: the sustained requests/sec view of
  /// the engine. batch_txns == 1 issues scalar blocking requests; larger
  /// batches go through submit()/drain() and let the engine overlap
  /// keystream/crypto with the bus and the DRAM banks with each other.
  [[nodiscard]] sim::throughput_stats run_throughput(const sim::workload& w,
                                                     std::size_t batch_txns);

  /// Called at every grant while a topology run is live: the granted
  /// master's id plus the interconnect itself, so callers can stage
  /// firewall reprograms (interconnect::reprogram_firewall) or read live
  /// counters under traffic.
  using grant_observer = std::function<void(sim::interconnect&, sim::master_id)>;

  /// Drive the engine as a shared multi-master interconnect: each
  /// descriptor becomes a sim::bus_master (id = its index) whose stream
  /// is lowered at its chunk granularity, and the masters are arbitrated
  /// by the tree \p topo declares (clusters, QoS classes; a topology with
  /// no clusters is the flat shared bus of sim::topology(arbiter_config)).
  /// Bus beats are tagged with the granted master's id; on the keyslot
  /// engine, descriptors with domain_len > 0 get private per-master
  /// protection domains (own derived key) for the duration of the run,
  /// and each master's firewall rule table is enforced by the engine
  /// *before* its protection-domain map. Like run_throughput, the stream
  /// bypasses the L1 (which is written back and invalidated on entry).
  /// Masters bind to topology slots by index-id; undeclared indices join
  /// cluster 0. On the keyslot engine the firewall is attached only when
  /// \p topo programs at least one table, so a table-free topology is
  /// cycle-identical to the flat run. Returns the interconnect stats plus
  /// the run's firewall and per-master domain accounting.
  [[nodiscard]] topology_run_stats run_topology(std::span<const master_desc> masters,
                                                const sim::topology& topo,
                                                const grant_observer& observe = {});
  /// run_topology over the topology carried in soc_config.
  [[nodiscard]] topology_run_stats run_topology(std::span<const master_desc> masters) {
    return run_topology(masters, cfg_.topology);
  }

  /// Write all dirty state (cache lines, page buffers) back to DRAM.
  void flush();

  /// Attach a bus probe (attacker / logic analyser).
  void attach_probe(sim::bus_probe& probe) { ext_.attach(probe); }

  [[nodiscard]] engine_kind kind() const noexcept { return kind_; }
  [[nodiscard]] edu& engine() noexcept { return *edu_; }
  /// The unified L1, or the data cache when split_l1 is set.
  [[nodiscard]] sim::cache& l1() noexcept { return *l1_; }
  /// The instruction cache; null unless split_l1.
  [[nodiscard]] sim::cache* l1i() noexcept { return l1i_.get(); }
  [[nodiscard]] sim::dram& memory() noexcept { return dram_; }
  [[nodiscard]] sim::external_memory& external() noexcept { return ext_; }
  [[nodiscard]] const soc_config& config() const noexcept { return cfg_; }

 private:
  /// Entry discipline shared by the direct-transaction drivers
  /// (run_throughput, run_topology): the txn streams bypass the L1,
  /// so write back any dirty lines a prior run() left behind (so a later
  /// flush() cannot clobber this run's data) and drop the rest, so a
  /// later run() refetches what this run rewrites; ditto the secure-DMA
  /// page buffers.
  void prepare_txn_stream();

  engine_kind kind_;
  soc_config cfg_;
  sim::dram dram_;
  sim::external_memory ext_;

  // Key material and functional cipher cores (owned).
  bytes aes_key_, des_key_, tdes_key_, byte_key_, mac_key_, best_key_;
  std::unique_ptr<crypto::block_cipher> cipher_;
  std::unique_ptr<crypto::block_cipher> prf_;
  std::unique_ptr<crypto::byte_bus_cipher> byte_cipher_;

  std::unique_ptr<sim::cache> l1_;
  std::unique_ptr<sim::cache> l1i_; ///< only when split_l1
  std::unique_ptr<edu> edu_;
  std::unique_ptr<sim::cpu> cpu_;
};

} // namespace buscrypt::edu
