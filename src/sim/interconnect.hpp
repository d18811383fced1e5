#pragma once
/// \file interconnect.hpp
/// Topology-first interconnect: a declarative description of the SoC's
/// master fabric (clusters of masters, QoS classes, per-master firewall
/// rule tables) instantiated as a tree of per-cluster arbiters feeding a
/// root arbiter onto the one shared downstream port (the EDU).
///
///                   root arbiter ──► EDU ──► bus/DRAM
///                 ┌───────┴────────┐
///           cluster0 arb     cluster1 arb   ...  (one arb_policy each)
///           ┌────┼────┐      ┌────┼────┐
///          m0   m1   m2     m3   m4   m5         (bus_master streams)
///
/// A topology with one cluster is the flat shared bus (tab12's multimaster
/// section): the root has a single child, so every grant decision is the
/// cluster's, taken by the same policy code over the same master order.
///
/// Two grant policies, the classic pair, run at every node:
///  - round_robin: rotate among children with pending work. Fair by
///    construction — no child waits more than (children - 1) rounds.
///  - fixed_priority: highest priority wins every round. Latency-optimal
///    for the favoured child and starvation-prone for everyone else;
///    `starvation_limit` adds aging — a child skipped that many
///    consecutive rounds pre-empts priority. Starved children drain one
///    per round (longest streak first), so the worst-case streak is
///    starvation_limit + children − 2, not the limit itself. 0 keeps
///    strict priority (unbounded).
///
/// QoS classes add bandwidth reservation and starvation aging *per class*
/// on top of the per-node policy: at each node, classes with pending work
/// are served weighted-round-robin by their reserved share (credits), and
/// a class whose pending children have waited past its aging limit
/// pre-empts the credit choice. With no class assigned (all
/// qos_class::none) each node arbitrates by its policy alone.
///
/// Firewalls: each master may carry an ordered rule table (firewall.hpp)
/// checked by the engine *before* its protection-domain map. Tables are
/// reprogrammable under live traffic via reprogram_firewall(): the new
/// table is staged and committed at the next window boundary, so the
/// in-flight window finishes under the old rules and the next window sees
/// the new ones — reconfiguration latency is measured and reported.

#include "sim/bus_master.hpp"
#include "sim/firewall.hpp"
#include "sim/memory_port.hpp"

#include <array>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace buscrypt::sim {

/// Grant policy of one arbitration node.
enum class arb_policy : u8 {
  round_robin,    ///< rotate among pending children (fair, bounded wait)
  fixed_priority, ///< highest priority wins (starvation-prone)
};

[[nodiscard]] constexpr std::string_view arb_policy_name(arb_policy p) noexcept {
  switch (p) {
    case arb_policy::round_robin: return "round-robin";
    case arb_policy::fixed_priority: return "fixed-priority";
  }
  return "?";
}

/// Parse an arb_policy from its arb_policy_name() spelling. Returns false
/// (and leaves \p out untouched) on an unknown name.
[[nodiscard]] bool parse_arb_policy(std::string_view name, arb_policy& out) noexcept;

inline constexpr arb_policy all_arb_policies[] = {arb_policy::round_robin,
                                                  arb_policy::fixed_priority};

struct arbiter_config {
  arb_policy policy = arb_policy::round_robin;
  std::size_t window_txns = 8; ///< transactions per granted bus window
  /// fixed_priority only: a child that has waited this many consecutive
  /// rounds with pending work pre-empts priority (aging). When several
  /// children starve at once they are served longest-streak-first, one
  /// per round, so a streak can overshoot by up to children − 2 rounds.
  /// 0 = strict priority, unbounded starvation.
  u64 starvation_limit = 0;
};

/// What one multi-master run measured. Aggregate throughput is
/// bytes/total_cycles; fairness shows up in the per-master breakdown.
struct arbiter_stats {
  u64 rounds = 0;        ///< grant decisions taken
  u64 txns = 0;          ///< transactions carried, all masters
  u64 bytes = 0;         ///< payload bytes moved, all masters
  cycles total_cycles = 0;
  std::vector<master_stats> masters; ///< one entry per master, add order

  [[nodiscard]] double bytes_per_cycle() const noexcept {
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(bytes) / static_cast<double>(total_cycles);
  }
};

/// Service class of a master (or a whole cluster) under QoS arbitration.
enum class qos_class : u8 {
  none,     ///< best-effort: plain policy arbitration (the default)
  bulk,     ///< bandwidth-reserved bulk movers (DMA streams)
  latency,  ///< latency-sensitive low-bandwidth requesters (pollers)
  realtime, ///< bounded-wait traffic: reserved share + tight aging
};

[[nodiscard]] constexpr std::string_view qos_class_name(qos_class c) noexcept {
  switch (c) {
    case qos_class::none: return "none";
    case qos_class::bulk: return "bulk";
    case qos_class::latency: return "latency";
    case qos_class::realtime: return "realtime";
  }
  return "?";
}

inline constexpr std::array<qos_class, 4> all_qos_classes = {
    qos_class::none, qos_class::bulk, qos_class::latency, qos_class::realtime};

/// Arbitration parameters of one QoS class at every node.
struct qos_params {
  unsigned weight = 1;  ///< reserved share: window grants per credit round
  u64 aging_limit = 0;  ///< pending-class wait rounds before pre-emption; 0 = never
};

/// Default reservation table: bulk holds the bandwidth share, latency and
/// realtime hold bounded-wait guarantees. Override via set_qos_params.
[[nodiscard]] constexpr qos_params default_qos_params(qos_class c) noexcept {
  switch (c) {
    case qos_class::none: return {1, 0};
    case qos_class::bulk: return {4, 0};
    case qos_class::latency: return {1, 6};
    case qos_class::realtime: return {2, 3};
  }
  return {1, 0};
}

/// Handle of one cluster in a topology (strongly typed so the set_qos
/// overloads for clusters and masters cannot be confused).
enum class cluster_id : u32 {};

struct cluster_config {
  std::string name;      ///< display name; "cluster<N>" when empty
  arbiter_config arb{};  ///< policy + window size among this cluster's masters
  unsigned priority = 0; ///< root-level rank under fixed_priority
  qos_class qos = qos_class::none; ///< class of the whole cluster at the root
};

/// The declarative builder: clusters, master slots, QoS assignments and
/// firewall rules. Pure description — nothing is instantiated until an
/// interconnect is built from it, so one topology can configure many runs
/// (it is the shape axis of soc_config and the fleet cells).
class topology {
 public:
  topology() = default;
  /// \p root arbitrates among the clusters (its window_txns is unused —
  /// windows are staged per cluster). A topology with no clusters gets an
  /// implicit single cluster inheriting \p root: the flat shared bus.
  explicit topology(arbiter_config root) : root_(root) {}

  /// Add a cluster; masters attach to it by the returned id.
  /// \throws std::invalid_argument when cfg.arb.window_txns == 0.
  cluster_id add_cluster(cluster_config cfg);

  /// Declare master \p m as a member of cluster \p c. Masters bind to the
  /// slot by id at interconnect::add_master; undeclared masters land in
  /// cluster 0.
  /// \throws std::invalid_argument for an unknown cluster, a duplicate
  ///         id, or the any_master sentinel.
  void add_master(cluster_id c, master_id m, qos_class cls = qos_class::none);

  /// Assign cluster \p c's class for root-level arbitration.
  void set_qos(cluster_id c, qos_class cls);
  /// Assign declared master \p m's class inside its cluster.
  /// \throws std::invalid_argument for an undeclared master.
  void set_qos(master_id m, qos_class cls);
  /// Override one class's reservation/aging parameters (weight >= 1).
  void set_qos_params(qos_class cls, qos_params p);

  /// Append one rule to \p m's ordered firewall table (first match wins;
  /// a master with any rules is whitelisted — no match denies).
  /// \throws std::invalid_argument for a zero-length rule or the sentinel.
  void add_firewall_rule(master_id m, firewall_rule r);

  struct slot {
    master_id id = cpu_master;
    std::size_t cluster = 0;
    qos_class cls = qos_class::none;
  };

  [[nodiscard]] const arbiter_config& root() const noexcept { return root_; }
  [[nodiscard]] const std::vector<cluster_config>& clusters() const noexcept {
    return clusters_;
  }
  [[nodiscard]] const std::vector<slot>& slots() const noexcept { return slots_; }
  [[nodiscard]] const slot* slot_of(master_id m) const noexcept;
  [[nodiscard]] const std::vector<std::pair<master_id, std::vector<firewall_rule>>>&
  firewall_tables() const noexcept {
    return tables_;
  }
  [[nodiscard]] const std::array<qos_params, 4>& params() const noexcept {
    return params_;
  }
  /// True when any cluster or declared master carries a non-none class —
  /// the switch that engages QoS arbitration (and nothing else changes).
  [[nodiscard]] bool qos_enabled() const noexcept;

 private:
  arbiter_config root_{};
  std::vector<cluster_config> clusters_;
  std::vector<slot> slots_;
  std::vector<std::pair<master_id, std::vector<firewall_rule>>> tables_;
  std::array<qos_params, 4> params_ = {
      default_qos_params(qos_class::none), default_qos_params(qos_class::bulk),
      default_qos_params(qos_class::latency), default_qos_params(qos_class::realtime)};
};

/// What one cluster contributed to a run.
struct cluster_stats {
  std::string name;
  u64 grants = 0; ///< windows granted into this cluster
  u64 txns = 0;
  u64 bytes = 0;
  u64 max_wait_streak = 0; ///< longest run of rounds the cluster waited pending
};

/// Per-class QoS accounting, summed over every node of the tree.
struct qos_class_stats {
  qos_class cls = qos_class::none;
  u64 grants = 0;
  u64 preempts = 0;   ///< grants forced by class starvation aging
  u64 max_streak = 0; ///< longest pending-class wait at any node
};

/// What one interconnect run measured: the flat arbiter_stats view (so
/// every flat-bus consumer keeps working) plus the tree/QoS/reconfig layers.
struct interconnect_stats {
  arbiter_stats bus; ///< aggregate + per-master, master bind order
  std::vector<cluster_stats> clusters;
  std::vector<qos_class_stats> qos; ///< empty unless QoS engaged
  u64 firewall_reprograms = 0;      ///< staged tables committed during the run
  cycles reconfig_latency_sum = 0;  ///< stage -> window-boundary commit cycles
  cycles reconfig_latency_max = 0;
};

/// The reusable arbitration node: one grant decision among N children
/// (masters at a cluster node, clusters at the root) under a policy, with
/// optional per-class QoS on top. Every tree level shares this code, so
/// flat and clustered arbitration cannot drift.
class arb_node {
 public:
  struct child {
    bool pending = false;
    unsigned priority = 0;
    u64 wait_streak = 0;
    qos_class cls = qos_class::none;
  };

  arb_node(arbiter_config cfg, bool qos, const std::array<qos_params, 4>& params);

  /// Index of the child to grant, or -1 when none is pending.
  [[nodiscard]] int pick(std::span<const child> kids);

  [[nodiscard]] u64 class_grants(qos_class c) const noexcept;
  [[nodiscard]] u64 class_preempts(qos_class c) const noexcept;
  [[nodiscard]] u64 class_max_streak(qos_class c) const noexcept;

 private:
  /// The plain policy decision (the flat bus's grant sequence),
  /// restricted to children of class \p cls when cls >= 0.
  [[nodiscard]] int pick_policy(std::span<const child> kids, int cls);

  arbiter_config cfg_;
  bool qos_ = false;
  std::array<qos_params, 4> params_{};
  std::array<long long, 4> credit_{};
  std::array<u64, 4> class_streak_{};
  std::array<u64, 4> class_grants_{};
  std::array<u64, 4> class_preempts_{};
  std::array<u64, 4> class_max_streak_{};
  std::size_t rr_next_ = 0;
};

/// The instantiated tree. Owns the firewall and the topology copy, not
/// the port or the masters; drives the whole contention to completion in
/// run().
class interconnect {
 public:
  /// \throws std::invalid_argument when the topology's root window size
  ///         is 0 or a firewall table fails validation.
  interconnect(memory_port& port, topology topo);

  /// Bind a master stream to its declared slot (by config().id);
  /// undeclared ids join cluster 0 with class none.
  /// \throws std::invalid_argument for a duplicate id or the sentinel.
  void add_master(bus_master& m);

  /// Called with the winning master's id at each grant, before its window
  /// is submitted — the hook external_memory attribution uses to tag
  /// scalar-path beats (see external_memory::set_master); restored to
  /// cpu_master on every exit from run().
  void set_grant_hook(std::function<void(master_id)> hook);

  /// The live firewall the engine checks. program() directly for
  /// setup-time tables; use reprogram_firewall for changes under traffic.
  [[nodiscard]] bus_firewall& firewall() noexcept { return fw_; }
  [[nodiscard]] const topology& topo() const noexcept { return topo_; }

  /// Stage a new rule table for \p m, committed at the next window
  /// boundary (before the next grant decision, or at run end): the
  /// in-flight window completes under the old table. Latency from this
  /// call to the commit is accounted in interconnect_stats.
  void reprogram_firewall(master_id m, std::vector<firewall_rule> rules);

  /// Arbitrate until every master's stream is drained.
  [[nodiscard]] interconnect_stats run();

 private:
  struct bound {
    bus_master* m = nullptr;
    std::size_t cluster = 0;
    qos_class cls = qos_class::none;
  };

  memory_port* port_;
  topology topo_;
  bus_firewall fw_;
  std::vector<bound> masters_;
  std::function<void(master_id)> grant_hook_;
  cycles clock_ = 0; ///< run()'s bus clock, visible to mid-run reprogram calls
  std::vector<cycles> staged_at_; ///< stage clocks of uncommitted reprograms
};

} // namespace buscrypt::sim
