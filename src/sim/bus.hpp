#pragma once
/// \file bus.hpp
/// The processor-memory bus — "the weakest point of the system, hacker's
/// favorite security hole" (Section 1). external_memory drives DRAM over
/// this bus and exposes probe taps: every beat (address + data + direction)
/// is observable, modelling "simple board-level probing at almost no cost".

#include "sim/dram.hpp"
#include "sim/memory_port.hpp"

#include <vector>

namespace buscrypt::sim {

/// One observed bus beat, as a logic analyser would capture it. Real
/// multi-master buses drive the granted master's id on dedicated lines
/// (AHB HMASTER); the tag is what lets an analyser — or an attacker —
/// attribute traffic per master instead of conflating the streams.
struct bus_beat {
  cycles at = 0;     ///< simulated time of the beat
  addr_t addr = 0;   ///< address driven on the address lines
  bool write = false;
  master_id master = cpu_master; ///< bus master that drove the beat
  bytes data;        ///< data lines for this beat (bus_bytes wide or less)
};

/// Observer interface for attack code and loggers.
class bus_probe {
 public:
  virtual ~bus_probe() = default;
  virtual void on_beat(const bus_beat& beat) = 0;
};

/// A probe that records what it sees. By default it keeps everything (a
/// logic analyser with bottomless storage); give it a capacity to get a
/// ring buffer that drops the oldest beats, so long throughput runs don't
/// grow without bound. beats_seen() counts every beat ever observed,
/// retained or not.
class recording_probe final : public bus_probe {
 public:
  recording_probe() = default;
  /// \param capacity max retained beats; 0 = unbounded.
  explicit recording_probe(std::size_t capacity) : capacity_(capacity) {}

  void on_beat(const bus_beat& beat) override;

  /// Number of retained beats (≤ capacity when bounded).
  [[nodiscard]] std::size_t size() const noexcept { return log_.size(); }

  /// Logical access, oldest first, O(1). Precondition: i < size(). Use
  /// this in loops that interleave with capture — it never touches the
  /// ring layout.
  [[nodiscard]] const bus_beat& operator[](std::size_t i) const noexcept {
    return log_[head_ == 0 ? i : (head_ + i) % log_.size()];
  }

  /// The retained beats as one contiguous vector, oldest first. Snapshot
  /// accessor: normalises the ring in place (O(size) after a wrap), so
  /// the reference stays cheap to hand to the attack code afterwards;
  /// prefer operator[] when capture continues between inspections.
  [[nodiscard]] const std::vector<bus_beat>& log() const;

  /// Total beats observed, including any dropped by the ring.
  [[nodiscard]] u64 beats_seen() const noexcept { return seen_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void clear() noexcept {
    log_.clear();
    head_ = 0;
    seen_ = 0;
  }

 private:
  mutable std::vector<bus_beat> log_;
  mutable std::size_t head_ = 0; ///< ring start when the buffer is full
  std::size_t capacity_ = 0;     ///< 0 = unbounded
  u64 seen_ = 0;
};

/// The off-chip path: memory controller + bus + DRAM. Implements
/// memory_port so EDUs can decorate it. Advances a local clock so probes
/// get coherent timestamps.
///
/// Scalar read/write issue one blocking burst. submit() schedules a whole
/// transaction batch: each transaction's activate/CAS latency binds to its
/// DRAM bank (distinct banks overlap), data beats serialise on the shared
/// bus, and probe beats are timestamped from that schedule — so an
/// attacker tracing a batched run sees the real interleaved bus activity.
class external_memory final : public memory_port {
 public:
  explicit external_memory(dram& backing)
      : dram_(&backing), bank_ready_(backing.timing().banks, 0) {}

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override;
  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override;

  void submit(std::span<mem_txn> batch) override;
  using memory_port::drain;

  /// Attach an observer; not owned. Multiple probes allowed.
  void attach(bus_probe& probe) { probes_.push_back(&probe); }

  /// Master driving subsequent *scalar* traffic (batched transactions
  /// carry their own tag). An arbiter sets this per granted window so
  /// beats emitted by scalar-path EDUs are attributed correctly; it
  /// defaults to — and should be restored to — sim::cpu_master.
  void set_master(master_id m) noexcept { scalar_master_ = m; }

  /// Bytes moved (for bandwidth accounting, e.g. the compression bench).
  [[nodiscard]] u64 bytes_read() const noexcept { return bytes_read_; }
  [[nodiscard]] u64 bytes_written() const noexcept { return bytes_written_; }

  /// Bus beats driven since construction, probes attached or not — the
  /// traffic-overhead metric the authentication benches report (a tag
  /// fetch costs beats, an AREA sideband does not).
  [[nodiscard]] u64 beats() const noexcept { return beats_; }

  [[nodiscard]] dram& backing() noexcept { return *dram_; }

 private:
  void emit_beats(addr_t addr, std::span<const u8> data, bool write, cycles at,
                  master_id master);

  dram* dram_;
  std::vector<bus_probe*> probes_;
  cycles now_ = 0;
  master_id scalar_master_ = cpu_master; ///< tag for scalar-path beats
  std::vector<cycles> bank_ready_; ///< per-bank busy-until, absolute time
  u64 bytes_read_ = 0;
  u64 bytes_written_ = 0;
  u64 beats_ = 0;
};

} // namespace buscrypt::sim
