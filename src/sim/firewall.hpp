#pragma once
/// \file firewall.hpp
/// Per-master programmable bus firewalls, modeled on Cotret et al.'s FPGA
/// hardware firewalls: each master's bus interface carries an ordered rule
/// table `(base, len, perm, ctx)` that is consulted *before* the engine's
/// protection-domain map. A master with no table has an open port (its
/// requests go straight to the domain map); a master with a table is
/// whitelisted — the first rule containing the address decides, and an
/// address no rule covers is denied. Denied reads are served the 0xFF
/// bus-error fill by the engine, denied writes are dropped; either way the
/// request never reaches the external bus.
///
/// Tables are *live-reprogrammable*: program() swaps a table immediately
/// (setup time), stage()/commit() is the under-traffic path — the
/// interconnect stages a new table mid-run and commits it at the next
/// window boundary, so a granted window is checked entirely under one
/// table version (no transaction is ever half-checked across a
/// reprogram). Every rule keeps hit/deny counters; per-master aggregates
/// and forged-sentinel denials are counted too, so containment is
/// observable, not assumed.

#include "sim/mem_txn.hpp"

#include <string_view>
#include <vector>

namespace buscrypt::sim {

/// Access permission one firewall rule grants over its range.
enum class fw_perm : u8 {
  none, ///< match-and-deny (an explicit block rule)
  r,    ///< read-only
  w,    ///< write-only
  rw,   ///< full access
};

[[nodiscard]] constexpr std::string_view fw_perm_name(fw_perm p) noexcept {
  switch (p) {
    case fw_perm::none: return "none";
    case fw_perm::r: return "r";
    case fw_perm::w: return "w";
    case fw_perm::rw: return "rw";
  }
  return "?";
}

/// One ordered-table entry: the first rule whose [base, base+len) contains
/// the address decides the access. `ctx` is an opaque context tag carried
/// for attribution (which domain/context the rule speaks for); it never
/// changes the match.
struct firewall_rule {
  addr_t base = 0;
  std::size_t len = 0;
  fw_perm perm = fw_perm::rw;
  u32 ctx = 0;
};

/// Per-rule counters, parallel to the installed table.
struct fw_rule_stats {
  u64 hits = 0;   ///< spans this rule allowed
  u64 denies = 0; ///< spans this rule denied (perm mismatch or fw_perm::none)
};

/// One master's firewall accounting: aggregate checks/denies plus the
/// per-rule breakdown. `denies` includes default denials no rule matched.
struct fw_master_stats {
  u64 checks = 0;
  u64 denies = 0;
  std::vector<fw_rule_stats> rules;
};

/// Decision over the longest uniform prefix of a request: allowed or not,
/// how many bytes that decision covers (the span splits where a
/// higher-priority rule starts or the matching rule ends), and which rule
/// decided (-1 = no rule: open port allows, programmed port denies).
struct fw_span {
  bool allowed = true;
  std::size_t len = 0;
  int rule = -1;
};

/// The per-master rule-table set — one firewall object serves the whole
/// interconnect, keyed by master id.
class bus_firewall {
 public:
  /// Install \p table for \p m immediately (setup-time path). An empty
  /// table is a valid deny-all port; use clear() to reopen the port.
  /// \throws std::invalid_argument for the any_master sentinel or a
  ///         zero-length rule.
  void program(master_id m, std::vector<firewall_rule> table);

  /// Stage \p table for \p m; it takes effect at the next commit(). A
  /// second stage for the same master before commit replaces the first.
  void stage(master_id m, std::vector<firewall_rule> table);

  /// Apply every staged table. Returns the number applied. The
  /// interconnect calls this only at window boundaries, which is what
  /// makes live reprogramming window-atomic.
  std::size_t commit();

  /// Remove \p m's table entirely (open port again). Counters survive.
  void clear(master_id m) noexcept;

  [[nodiscard]] bool has_table(master_id m) const noexcept;
  [[nodiscard]] bool has_staged() const noexcept { return !staged_.empty(); }
  /// True when any master has a table installed (the engine hook is only
  /// wired up when there is something to enforce).
  [[nodiscard]] bool any_table() const noexcept;
  [[nodiscard]] const std::vector<firewall_rule>* table(master_id m) const noexcept;

  /// Pure lookup: the decision over the longest uniform prefix of
  /// [addr, addr+len) for \p m, no counters touched. The forged
  /// any_master sentinel is always denied whole (see mem_txn.hpp).
  [[nodiscard]] fw_span peek(master_id m, addr_t addr, std::size_t len,
                             bool is_write) const noexcept;

  /// peek() plus accounting: one check per call, a hit or deny on the
  /// deciding rule, aggregate denies, sentinel denials. The engine calls
  /// this exactly once per uniform span it serves or refuses.
  fw_span check(master_id m, addr_t addr, std::size_t len, bool is_write);

  /// \p m's counters (zeros for a master never checked).
  [[nodiscard]] fw_master_stats stats(master_id m) const;

  [[nodiscard]] u64 sentinel_denials() const noexcept { return sentinel_denials_; }
  /// Tables installed over the firewall's lifetime (program + commit).
  [[nodiscard]] u64 reprograms() const noexcept { return reprograms_; }

 private:
  struct port {
    master_id id = cpu_master;
    std::vector<firewall_rule> table;
    fw_master_stats st;
  };

  [[nodiscard]] port* find(master_id m) noexcept;
  [[nodiscard]] const port* find(master_id m) const noexcept;
  static void validate(master_id m, const std::vector<firewall_rule>& table);
  void install(master_id m, std::vector<firewall_rule> table);

  std::vector<port> ports_; ///< few masters: linear scan, like domain_stats
  std::vector<std::pair<master_id, std::vector<firewall_rule>>> staged_;
  u64 sentinel_denials_ = 0;
  u64 reprograms_ = 0;
};

} // namespace buscrypt::sim
