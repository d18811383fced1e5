#pragma once
/// \file txn_batcher.hpp
/// The shared transaction scheduler behind the native batch datapaths of
/// the surveyed EDUs and the keyslot engine.
///
/// Every surveyed engine overlaps the same things when it pipelines a
/// transaction window (Fig. 2a/2b, Tab. 7): work it can do *before* the
/// bus moves (pre-enciphering writes whose data is already in hand), work
/// derived from the *address alone* (keystream pads, IV setup) that runs
/// concurrently with the whole DRAM activate/CAS schedule, and work gated
/// on each transaction's *own data arrival* (serial ECB/CBC decipher, MAC
/// verification). txn_batcher models those lanes over one lower
/// submit()/drain() window, so each submit() only states which lane each
/// job belongs to and what functional transform runs when the window
/// retires:
///
///   - add_pre():     staged serial-core work shipped before the window
///                    (write encipher) — overlaps the whole bus schedule;
///   - add_par():     address-derived work (pads) — also overlapped, with a
///                    per-job tail (the XOR stage) charged after the max;
///   - add_overlap(): address-derived work on the same pad lane that
///                    widens the makespan but gates no stamp (the engine's
///                    CTR pads, whose XOR retires with the data);
///   - add_gated():   serial-core work that cannot start before its lower
///                    transaction's data arrives; chained across the window
///                    so it pipelines against *later* fetches but its tail
///                    is never hidden — a single-transaction window
///                    degenerates to the scalar mem + crypto time;
///   - add_local():   on-chip work with no lower traffic (SRAM hits,
///                    prefetch-buffer hits), serialised with the gated lane;
///   - add_mac_pre() / add_mac(): a second serial unit, the MAC engine —
///                    write tags pre-loaded before the window, verifies
///                    gated on their data and tag-line arrival.
///
/// The window makespan is the max of the bus window and every lane (plus
/// the par tails). Functional callbacks run in staging order after the
/// lower window drains, so read deciphers see arrived data and
/// read-after-write inside one window observes staged effects in
/// submission order — the \ref txn_contract invariants hold by
/// construction. Transactions a port cannot schedule natively detour
/// through its scalar path: pending native work retires first, then the
/// scalar call is accounted and the transaction stamped. detour() takes
/// that call as a callable, so the keyslot engine serves the detour as the
/// transaction's own master; detour_via() is the same detour through a
/// port's read() or write(), which is what every EDU uses.
///
/// Every EDU with a lower window schedules here. Only cacheside_edu keeps a
/// hand-rolled batch path: it has no lower window, since its keystream-RAM
/// refills hide behind the misses of its own cache.

#include "common/types.hpp"
#include "sim/mem_txn.hpp"
#include "sim/memory_port.hpp"

#include <deque>
#include <functional>
#include <vector>

namespace buscrypt::sim {

class txn_batcher {
 public:
  /// "No lower transaction" sentinel for the gated/par lanes.
  static constexpr std::size_t no_lower = static_cast<std::size_t>(-1);

  /// \param lower the port windows are submitted to; referenced.
  /// \param base  the EDU's cycle accumulator at submit() entry — stamps
  ///              are relative to the EDU's last drain(), per the contract.
  /// \param txns  the batch size, reserved up front in the staging vectors.
  txn_batcher(memory_port& lower, cycles base, std::size_t txns)
      : port_(&lower), base_(base) {
    lower_.reserve(txns);
    owners_.reserve(txns);
    order_.reserve(txns);
    jobs_.reserve(txns);
  }

  /// Jobs and lower transactions staged until the next begin_txn belong to
  /// \p txn: its completion stamp is the latest finish among them.
  void begin_txn(mem_txn& txn) { cur_ = &txn; }

  /// Stable scratch storage for staged ciphertext and fetch buffers; valid
  /// until the current window's flush-end hooks have run.
  [[nodiscard]] bytes& scratch(std::size_t size) {
    aux_.emplace_back(size);
    return aux_.back();
  }
  [[nodiscard]] bytes& scratch_copy(std::span<const u8> data) {
    aux_.emplace_back(data.begin(), data.end());
    return aux_.back();
  }

  /// Queue one lower transaction, one span, for the current batch
  /// transaction. An EDU that splits a span (gi_edu's CBC segments,
  /// compress_edu's groups, dma_edu's pages) queues one per piece.
  /// Returns its window index (for arrival gating).
  std::size_t queue(txn_op op, master_id master, addr_t addr, std::span<u8> data) {
    return queue_for(cur_, op, master, addr, data);
  }

  /// Side traffic (tag lines, metadata) that rides the window but stamps
  /// no batch transaction.
  std::size_t queue_side(txn_op op, master_id master, addr_t addr, std::span<u8> data) {
    return queue_for(nullptr, op, master, addr, data);
  }

  /// Staged serial-core work shipped before the window (write encipher).
  void add_pre(cycles c) { pre_total_ += c; }

  /// Address-derived work overlapped with the whole window; \p tail is the
  /// per-job stage charged after the overlap (the XOR gate).
  void add_par(std::size_t lower_idx, cycles c, cycles tail,
               std::function<void()> fn = {}) {
    note_owner(cur_);
    jobs_.push_back({kind::par, lower_idx, no_lower, c, tail, cur_, std::move(fn)});
  }

  /// Address-derived work on the par lane that widens the makespan but
  /// gates no completion stamp.
  void add_overlap(cycles c, std::function<void()> fn = {}) {
    jobs_.push_back({kind::overlap, no_lower, no_lower, c, 0, nullptr, std::move(fn)});
  }

  /// Serial-core work gated on the arrival of \p lower_idx (and
  /// \p lower_idx2 when both a data and a metadata fetch must land first;
  /// pass no_lower otherwise).
  void add_gated(std::size_t lower_idx, std::size_t lower_idx2, cycles c,
                 std::function<void()> fn = {}) {
    note_owner(cur_);
    jobs_.push_back({kind::gated, lower_idx, lower_idx2, c, 0, cur_, std::move(fn)});
  }

  /// On-chip work with no lower traffic, serialised with the gated lane.
  void add_local(cycles c, std::function<void()> fn = {}) {
    note_owner(cur_);
    jobs_.push_back({kind::local, no_lower, no_lower, c, 0, cur_, std::move(fn)});
  }

  /// MAC-unit work shipped before the window (write tags).
  void add_mac_pre(cycles c) { mac_pre_total_ += c; }

  /// MAC-unit work gated like add_gated, on the MAC unit's own serial lane.
  void add_mac(std::size_t lower_idx, std::size_t lower_idx2, cycles c,
               std::function<void()> fn = {}) {
    note_owner(cur_);
    jobs_.push_back({kind::mac, lower_idx, lower_idx2, c, 0, cur_, std::move(fn)});
  }

  /// Run \p fn after this window's callbacks (scratch still valid) — for
  /// per-window bookkeeping like retiring an authenticator's staged tags.
  void at_flush_end(std::function<void()> fn) { end_fns_.push_back(std::move(fn)); }

  /// Anything staged and not yet retired?
  [[nodiscard]] bool open() const noexcept { return !lower_.empty() || !jobs_.empty(); }

  /// Ship the window: submit + drain the lower transactions, run the
  /// functional callbacks in staging order, advance the clock by the
  /// window makespan and stamp every owning transaction.
  void flush();

  /// Charge \p c cycles outside any lane (a keyslot program): the current
  /// window and everything after it shift by \p c.
  void advance(cycles c) { clock_ += c; }

  /// The ordered detour every native path uses for a transaction it cannot
  /// schedule: flush pending native work, serve \p txn with \p serve (the
  /// port's scalar datapath, returning its cycles), and stamp it.
  template <class Serve>
  void detour(mem_txn& txn, Serve&& serve) {
    begin_txn(txn);
    flush();
    clock_ += serve();
    txn.complete_cycle = base_ + clock_;
  }

  /// detour() through one call to \p scalar's read() or write().
  void detour_via(mem_txn& txn, memory_port& scalar) {
    detour(txn, [&] {
      return txn.is_write() ? scalar.write(txn.addr, txn.data)
                            : scalar.read(txn.addr, txn.data);
    });
  }

  /// Cycles consumed by every window and detour so far (the submit()'s
  /// contribution to the EDU's accumulator).
  [[nodiscard]] cycles clock() const noexcept { return clock_; }

  /// The lower port's drain() cycles summed over every window so far — the
  /// part of clock() the bus itself took.
  [[nodiscard]] cycles lower_cycles() const noexcept { return lower_clock_; }

  /// Completed windows — EDUs use this to amortise per-window setup
  /// (decompressor dictionary warm-up) without extra plumbing.
  [[nodiscard]] u64 flush_seq() const noexcept { return flush_seq_; }

 private:
  enum class kind : u8 { par, overlap, gated, local, mac };

  struct job {
    kind k;
    std::size_t li;
    std::size_t li2;
    cycles c;
    cycles tail;
    mem_txn* owner;
    std::function<void()> fn;
  };

  std::size_t queue_for(mem_txn* owner, txn_op op, master_id master, addr_t addr,
                        std::span<u8> data) {
    lower_.push_back({.op = op, .master = master, .addr = addr, .data = data});
    owners_.push_back(owner);
    note_owner(owner);
    return lower_.size() - 1;
  }

  /// Track owners in staging (= submission) order so stamps stay monotone
  /// even when a transaction stages only on-chip jobs. Transactions stage
  /// contiguously, so adjacent dedup suffices.
  void note_owner(mem_txn* t) {
    if (t != nullptr && (order_.empty() || order_.back() != t)) order_.push_back(t);
  }

  memory_port* port_;
  std::vector<mem_txn> lower_;
  std::vector<mem_txn*> owners_; ///< aligned with lower_; null = side traffic
  std::vector<mem_txn*> order_;  ///< owners in staging order, deduped
  std::deque<bytes> aux_;
  std::vector<job> jobs_;
  std::vector<std::function<void()>> end_fns_;
  cycles pre_total_ = 0;
  cycles mac_pre_total_ = 0;
  cycles base_;
  cycles clock_ = 0;
  cycles lower_clock_ = 0;
  u64 flush_seq_ = 0;
  mem_txn* cur_ = nullptr;
};

} // namespace buscrypt::sim
