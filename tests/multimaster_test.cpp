// Multi-master interconnect: bus_master/interconnect grant policies and
// accounting, per-master protection domains in the keyslot engine
// (denied-access fault path, slot-pool sharing), mixed-master workload
// generators, soc::run_topology solo-vs-concurrent equivalence, and
// per-master bus-beat attribution.

#include "attack/trace_analysis.hpp"
#include "edu/soc.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "sim/bus.hpp"
#include "sim/bus_master.hpp"
#include "sim/interconnect.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace buscrypt {
namespace {

using namespace sim;
using edu::engine_kind;
using engine::bus_encryption_engine;

// --- compile-time contracts --------------------------------------------------

static_assert(cpu_master == 0);
static_assert(arb_policy_name(arb_policy::round_robin) == "round-robin");
static_assert(arb_policy_name(arb_policy::fixed_priority) == "fixed-priority");
static_assert(edu::master_kind_name(edu::master_kind::dma) == "dma");
static_assert(mem_txn{}.master == cpu_master,
              "untagged transactions must default to the CPU master");

// --- shared fixtures ---------------------------------------------------------

/// Fixed-latency scalar-only port (same shape the pipeline tests use).
class fixed_latency_port final : public memory_port {
 public:
  explicit fixed_latency_port(std::size_t size, cycles latency)
      : image_(size, 0), latency_(latency) {}

  cycles read(addr_t addr, std::span<u8> out) override {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = image_[addr + i];
    ++reads;
    return latency_;
  }
  cycles write(addr_t addr, std::span<const u8> in) override {
    for (std::size_t i = 0; i < in.size(); ++i) image_[addr + i] = in[i];
    ++writes;
    return latency_;
  }

  bytes image_;
  u64 reads = 0;
  u64 writes = 0;

 private:
  cycles latency_;
};

/// n_ops chunk-granular alternating-line reads starting at base.
std::vector<port_op> read_stream(addr_t base, std::size_t n_ops, std::size_t chunk) {
  std::vector<port_op> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) ops.push_back({base + i * chunk, false});
  return ops;
}

bus_master_config master_cfg(master_id id, const char* name, unsigned priority,
                             std::size_t chunk = 32) {
  bus_master_config c;
  c.id = id;
  c.name = name;
  c.priority = priority;
  c.chunk = chunk;
  return c;
}

// --- mixed-master workload generators ----------------------------------------

TEST(MakeDmaCopy, LowersToDenseBurstStream) {
  const std::size_t burst = 128;
  const workload w = make_dma_copy(1024, 0x10000, 0x20000, burst, 1);
  // Full 8-byte coverage of both ranges, reads before writes per burst.
  EXPECT_EQ(w.accesses.size(), 2 * 1024 / 8);
  EXPECT_DOUBLE_EQ(w.write_fraction, 0.5);

  const auto ops = to_port_ops(w, burst);
  ASSERT_EQ(ops.size(), 2 * 1024 / burst);
  for (std::size_t i = 0; i < ops.size(); i += 2) {
    EXPECT_FALSE(ops[i].write);
    EXPECT_EQ(ops[i].addr, 0x10000 + (i / 2) * burst);
    EXPECT_TRUE(ops[i + 1].write);
    EXPECT_EQ(ops[i + 1].addr, 0x20000 + (i / 2) * burst);
  }
  // Lowering at a smaller chunk still covers both ranges densely.
  const auto fine = to_port_ops(w, 32);
  EXPECT_EQ(fine.size(), 2 * 1024 / 32);
}

TEST(MakeDmaCopy, RejectsRaggedBursts) {
  EXPECT_THROW((void)make_dma_copy(100, 0, 4096, 64, 1), std::invalid_argument);
  EXPECT_THROW((void)make_dma_copy(128, 0, 4096, 12, 1), std::invalid_argument);
}

TEST(MakePeripheralPoll, RotatesRegistersAndWrites) {
  const workload w = make_peripheral_poll(64, 0x8000, 4, 64, 16, 1);
  ASSERT_EQ(w.accesses.size(), 64 + 4);
  EXPECT_EQ(w.accesses[0].addr, 0x8000u);
  EXPECT_EQ(w.accesses[1].addr, 0x8040u);
  EXPECT_EQ(w.footprint, 4 * 64u);
  u64 stores = 0;
  for (const mem_access& a : w.accesses)
    if (a.kind == access_kind::store) ++stores;
  EXPECT_EQ(stores, 4u);
  // Rotation across register lines survives the L1-style coalescing.
  EXPECT_GT(to_port_ops(w, 32).size(), 60u);
}

TEST(OffsetWorkload, ShiftsEveryAccess) {
  workload w = make_peripheral_poll(8, 0, 2, 64, 0, 1);
  const workload shifted = offset_workload(w, 1 << 20);
  ASSERT_EQ(shifted.accesses.size(), w.accesses.size());
  for (std::size_t i = 0; i < w.accesses.size(); ++i)
    EXPECT_EQ(shifted.accesses[i].addr, w.accesses[i].addr + (1u << 20));
}

// --- arbiter: grant policies and accounting ----------------------------------
// These run through the topology-first interconnect (a topology with no
// clusters is the flat bus).

TEST(Arbiter, RejectsBadConfigAndDuplicateIds) {
  fixed_latency_port port(4096, 10);
  EXPECT_THROW(interconnect(port, topology({arb_policy::round_robin, 0, 0})),
               std::invalid_argument);
  interconnect ic(port, topology({arb_policy::round_robin, 4, 0}));
  bus_master a(master_cfg(1, "a", 0), read_stream(0, 8, 32));
  bus_master b(master_cfg(1, "b", 0), read_stream(0, 8, 32));
  ic.add_master(a);
  EXPECT_THROW(ic.add_master(b), std::invalid_argument);
  // The reserved sentinel can never become a real master on the bus.
  bus_master forged(master_cfg(any_master, "forged", 0), read_stream(0, 8, 32));
  EXPECT_THROW(ic.add_master(forged), std::invalid_argument);
}

TEST(Arbiter, RoundRobinSharesGrantsAndBoundsWaiting) {
  fixed_latency_port port(1 << 16, 10);
  interconnect ic(port, topology({arb_policy::round_robin, 4, 0}));
  bus_master a(master_cfg(0, "a", 0), read_stream(0, 32, 32));
  bus_master b(master_cfg(1, "b", 0), read_stream(8192, 32, 32));
  bus_master c(master_cfg(2, "c", 0), read_stream(16384, 32, 32));
  ic.add_master(a);
  ic.add_master(b);
  ic.add_master(c);

  const arbiter_stats st = ic.run().bus;
  ASSERT_EQ(st.masters.size(), 3u);
  EXPECT_EQ(st.rounds, 3 * 32u / 4);
  EXPECT_EQ(st.txns, 3 * 32u);
  EXPECT_EQ(st.bytes, 3 * 32u * 32);
  for (const master_stats& m : st.masters) {
    EXPECT_EQ(m.grants, 8u);
    EXPECT_EQ(m.txns, 32u);
    EXPECT_EQ(m.bytes, 32u * 32);
    // Round-robin: nobody waits more than (masters - 1) consecutive rounds.
    EXPECT_LE(m.max_wait_streak, 2u);
  }
  // Equal streams through a fixed-latency port: service time splits evenly.
  EXPECT_EQ(st.masters[0].service_cycles, st.masters[1].service_cycles);
  EXPECT_EQ(st.total_cycles, st.masters[0].service_cycles * 3);
}

TEST(Arbiter, FixedPriorityServesHighFirstAndStarvesLow) {
  fixed_latency_port port(1 << 16, 10);
  interconnect ic(port, topology({arb_policy::fixed_priority, 4, 0}));
  bus_master low(master_cfg(0, "low", 1), read_stream(0, 16, 32));
  bus_master high(master_cfg(1, "high", 9), read_stream(8192, 32, 32));
  ic.add_master(low);
  ic.add_master(high);

  const arbiter_stats st = ic.run().bus;
  const master_stats& lo = st.masters[0];
  const master_stats& hi = st.masters[1];
  // Strict priority: high drains completely before low's first grant.
  EXPECT_LT(hi.finish_cycle, lo.finish_cycle);
  EXPECT_LT(hi.avg_txn_latency(), lo.avg_txn_latency());
  EXPECT_EQ(lo.max_wait_streak, 32u / 4) << "low waits out every high window";
  EXPECT_EQ(hi.max_wait_streak, 0u);
}

TEST(Arbiter, StarvationLimitBoundsFixedPriorityWaiting) {
  fixed_latency_port port(1 << 16, 10);
  interconnect ic(port,
                  topology({arb_policy::fixed_priority, 4, /*starvation_limit=*/2}));
  bus_master low(master_cfg(0, "low", 1), read_stream(0, 32, 32));
  bus_master high(master_cfg(1, "high", 9), read_stream(8192, 32, 32));
  ic.add_master(low);
  ic.add_master(high);

  const arbiter_stats st = ic.run().bus;
  EXPECT_LE(st.masters[0].max_wait_streak, 2u)
      << "aging must grant a master once it hits the starvation limit";
  // High priority still dominates overall.
  EXPECT_LE(st.masters[1].finish_cycle, st.masters[0].finish_cycle);
}

TEST(Arbiter, GrantHookSeesEveryWindowThenRestoresCpu) {
  fixed_latency_port port(1 << 16, 10);
  interconnect ic(port, topology({arb_policy::round_robin, 4, 0}));
  bus_master a(master_cfg(3, "a", 0), read_stream(0, 8, 32));
  bus_master b(master_cfg(7, "b", 0), read_stream(8192, 8, 32));
  ic.add_master(a);
  ic.add_master(b);
  std::vector<master_id> grants;
  ic.set_grant_hook([&](master_id m) { grants.push_back(m); });
  const arbiter_stats st = ic.run().bus;
  ASSERT_EQ(grants.size(), st.rounds + 1);
  EXPECT_EQ(grants.back(), cpu_master) << "hook must restore the idle default";
  EXPECT_EQ(grants[0], 3u);
  EXPECT_EQ(grants[1], 7u);
}

TEST(Arbiter, CompletionStampsAreMonotonePerMaster) {
  fixed_latency_port port(1 << 16, 10);
  interconnect ic(port, topology({arb_policy::round_robin, 4, 0}));
  bus_master a(master_cfg(0, "a", 0), read_stream(0, 12, 32));
  ic.add_master(a);
  const arbiter_stats st = ic.run().bus;
  // Single master: every txn completes by the end; the mean absolute
  // latency is below the total and above the first window's makespan.
  EXPECT_LE(st.masters[0].finish_cycle, st.total_cycles);
  EXPECT_GT(st.masters[0].avg_txn_latency(), 0.0);
  EXPECT_LT(st.masters[0].avg_txn_latency(),
            static_cast<double>(st.total_cycles));
}

// --- per-master protection domains in the keyslot engine ---------------------

/// Two private domains (masters 1 and 2) over a fixed-latency lower port.
struct domain_rig {
  fixed_latency_port port{64 * 1024, 10};
  engine::keyslot_manager slots{engine::backend_registry::builtin(), 4};
  bus_encryption_engine eng{port, slots};
  bus_encryption_engine::context_id c1, c2;

  domain_rig() {
    c1 = eng.create_context({"aes-ctr", bytes(16, 0x11), 32});
    c2 = eng.create_context({"aes-ctr", bytes(16, 0x22), 32});
    eng.bind_domain(1, 0, 4096, c1);
    eng.bind_domain(2, 4096, 4096, c2);
  }

  cycles submit_one(mem_txn txn) {
    std::vector<mem_txn> batch;
    batch.push_back(std::move(txn));
    eng.submit(batch);
    return eng.drain();
  }
};

TEST(ProtectionDomains, OwnerRoundTripsThroughItsDomain) {
  domain_rig rig;
  bytes in(32), out(32, 0);
  fill_store_pattern(64, in);
  mem_txn w = mem_txn::write_of(64, in);
  w.master = 1;
  (void)rig.submit_one(std::move(w));
  mem_txn r = mem_txn::read_of(64, out);
  r.master = 1;
  (void)rig.submit_one(std::move(r));
  EXPECT_EQ(out, in);
  EXPECT_EQ(rig.eng.stats().domain_faults, 0u);
  EXPECT_GT(rig.eng.domain(1).writes, 0u);
  EXPECT_GT(rig.eng.domain(1).reads, 0u);
}

TEST(ProtectionDomains, CrossDomainReadReturnsFaultNotPlaintext) {
  domain_rig rig;
  bytes secret(32);
  fill_store_pattern(0, secret);
  mem_txn w = mem_txn::write_of(0, secret);
  w.master = 1;
  (void)rig.submit_one(std::move(w));

  bytes out(32, 0);
  mem_txn r = mem_txn::read_of(0, out);
  r.master = 2; // wrong domain
  const cycles t = rig.submit_one(std::move(r));
  EXPECT_EQ(out, bytes(32, bus_encryption_engine::fault_fill))
      << "denied read must return the bus-error pattern";
  EXPECT_NE(out, secret);
  EXPECT_GT(t, 0u);
  EXPECT_EQ(rig.eng.domain(2).faults, 1u);
  EXPECT_EQ(rig.eng.stats().domain_faults, 1u);

  // The CPU (master 0) is just another non-owner.
  bytes cpu_view(32, 0);
  EXPECT_GT(rig.eng.read(0, cpu_view), 0u);
  EXPECT_EQ(cpu_view, bytes(32, bus_encryption_engine::fault_fill));
  EXPECT_EQ(rig.eng.domain(cpu_master).faults, 1u);
}

TEST(ProtectionDomains, DeniedAccessNeverReachesTheBus) {
  domain_rig rig;
  const u64 reads_before = rig.port.reads;
  const u64 writes_before = rig.port.writes;
  bytes buf(32, 0xAB);
  mem_txn r = mem_txn::read_of(0, buf);
  r.master = 2;
  (void)rig.submit_one(std::move(r));
  mem_txn w = mem_txn::write_of(0, buf);
  w.master = 2;
  (void)rig.submit_one(std::move(w));
  EXPECT_EQ(rig.port.reads, reads_before) << "firewall blocks on-chip";
  EXPECT_EQ(rig.port.writes, writes_before);
}

TEST(ProtectionDomains, CrossDomainWriteIsDroppedWhole) {
  domain_rig rig;
  bytes original(32);
  fill_store_pattern(128, original);
  mem_txn w1 = mem_txn::write_of(128, original);
  w1.master = 1;
  (void)rig.submit_one(std::move(w1));

  bytes intruder(32, 0x66);
  mem_txn w2 = mem_txn::write_of(128, intruder);
  w2.master = 2;
  (void)rig.submit_one(std::move(w2));
  EXPECT_EQ(rig.eng.domain(2).faults, 1u);

  bytes out(32, 0);
  mem_txn r = mem_txn::read_of(128, out);
  r.master = 1;
  (void)rig.submit_one(std::move(r));
  EXPECT_EQ(out, original) << "owner's data must survive the denied write";
}

TEST(ProtectionDomains, ScalarDetourHonoursTheTxnMaster) {
  domain_rig rig;
  // Unaligned (RMW-shaped) transactions are ineligible for the native
  // batch path and detour through the scalar datapath — which must still
  // fault under the txn's master, not the CPU default.
  bytes partial(8, 0x5A);
  mem_txn w = mem_txn::write_of(4, partial);
  w.master = 2; // domain 1's range
  (void)rig.submit_one(std::move(w));
  EXPECT_EQ(rig.eng.domain(2).faults, 1u);
  // The master travels with the request: a later CPU access into domain 1
  // is charged to the CPU, not to the detoured txn's master.
  bytes cpu_view(8, 0);
  (void)rig.eng.read(4, cpu_view);
  EXPECT_EQ(rig.eng.domain(cpu_master).faults, 1u);
  EXPECT_EQ(rig.eng.domain(2).faults, 1u) << "the CPU's denial leaked onto master 2";

  bytes out(8, 0);
  mem_txn r = mem_txn::read_of(4, out);
  r.master = 2;
  (void)rig.submit_one(std::move(r));
  EXPECT_EQ(out, bytes(8, bus_encryption_engine::fault_fill));
}

TEST(ProtectionDomains, ForgedAnyMasterTagCannotBypassTheFirewall) {
  // any_master is an in-band sentinel reserved for the trusted offline
  // view (span_at); a transaction forged with it on the untrusted
  // datapath must be denied like any non-owner, never granted the
  // ownership-blind view.
  domain_rig rig;
  bytes secret(32);
  fill_store_pattern(0, secret);
  mem_txn w = mem_txn::write_of(0, secret);
  w.master = 1;
  (void)rig.submit_one(std::move(w));

  bytes out(32, 0);
  mem_txn r = mem_txn::read_of(0, out);
  r.master = bus_encryption_engine::any_master;
  (void)rig.submit_one(std::move(r));
  EXPECT_EQ(out, bytes(32, bus_encryption_engine::fault_fill));
  EXPECT_NE(out, secret);
  EXPECT_GT(rig.eng.stats().domain_faults, 0u);

  bytes intruder(32, 0x77);
  mem_txn fw = mem_txn::write_of(0, intruder);
  fw.master = bus_encryption_engine::any_master;
  (void)rig.submit_one(std::move(fw));
  bytes back(32, 0);
  mem_txn rb = mem_txn::read_of(0, back);
  rb.master = 1;
  (void)rig.submit_one(std::move(rb));
  EXPECT_EQ(back, secret) << "forged write must be dropped";
}

TEST(ProtectionDomains, SharedMappingStaysOpenToAllMasters) {
  domain_rig rig;
  const auto shared = rig.eng.create_context({"aes-ctr", bytes(16, 0x33), 32});
  rig.eng.map_region(8192, 4096, shared);
  bytes in(32), out(32, 0);
  fill_store_pattern(8192, in);
  mem_txn w = mem_txn::write_of(8192, in);
  w.master = 1;
  (void)rig.submit_one(std::move(w));
  mem_txn r = mem_txn::read_of(8192, out);
  r.master = 2;
  (void)rig.submit_one(std::move(r));
  EXPECT_EQ(out, in);
  EXPECT_EQ(rig.eng.stats().domain_faults, 0u);
}

TEST(ProtectionDomains, OfflineInstallAndReadbackAreOwnershipBlind) {
  domain_rig rig;
  bytes image(64, 0xC3);
  rig.eng.install(0, image); // the trusted loader writes into domain 1
  bytes back(64, 0);
  rig.eng.read_plain(0, back);
  EXPECT_EQ(back, image);
  EXPECT_EQ(rig.eng.stats().domain_faults, 0u);
}

TEST(ProtectionDomains, DomainBoundarySplitsASingleRequest) {
  domain_rig rig;
  // A read straddling both domains as master 1: own half decrypts, the
  // foreign half comes back as the fault pattern.
  bytes own(32);
  fill_store_pattern(4064, own);
  mem_txn w = mem_txn::write_of(4064, own);
  w.master = 1;
  (void)rig.submit_one(std::move(w));

  bytes out(64, 0);
  mem_txn r = mem_txn::read_of(4064, out);
  r.master = 1;
  (void)rig.submit_one(std::move(r));
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 32, own.begin()));
  EXPECT_EQ(bytes(out.begin() + 32, out.end()),
            bytes(32, bus_encryption_engine::fault_fill));
  EXPECT_EQ(rig.eng.domain(1).faults, 1u);
}

TEST(ProtectionDomains, TwoDomainsShareOneSlotPool) {
  // One hardware slot, two single-master domains with different keys:
  // both must function (contention retirement / reprogramming), and the
  // pool counters must show the keys really displaced each other.
  fixed_latency_port port(64 * 1024, 10);
  engine::keyslot_manager slots(engine::backend_registry::builtin(), 1);
  bus_encryption_engine eng(port, slots);
  const auto c1 = eng.create_context({"aes-ctr", bytes(16, 0x11), 32});
  const auto c2 = eng.create_context({"aes-ctr", bytes(16, 0x22), 32});
  eng.bind_domain(1, 0, 4096, c1);
  eng.bind_domain(2, 4096, 4096, c2);

  bytes lanes(4 * 32);
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < 4; ++i) {
    const addr_t a = (i % 2 == 0) ? i * 32 : 4096 + i * 32;
    const std::span<u8> lane(lanes.data() + i * 32, 32);
    fill_store_pattern(a, lane);
    mem_txn t = mem_txn::write_of(a, lane);
    t.master = (i % 2 == 0) ? 1u : 2u;
    batch.push_back(std::move(t));
  }
  eng.submit(batch);
  (void)eng.drain();
  EXPECT_GE(slots.stats().programs, 2u) << "both keys must hit the pool";
  EXPECT_EQ(eng.stats().domain_faults, 0u);

  // Each owner reads its own bytes back.
  bytes out(32, 0);
  mem_txn r1 = mem_txn::read_of(0, out);
  r1.master = 1;
  std::vector<mem_txn> rb;
  rb.push_back(std::move(r1));
  eng.submit(rb);
  (void)eng.drain();
  bytes expect(32);
  fill_store_pattern(0, expect);
  EXPECT_EQ(out, expect);
}

TEST(ProtectionDomains, BindDomainValidatesOwnerAndContext) {
  domain_rig rig;
  EXPECT_THROW(rig.eng.bind_domain(bus_encryption_engine::any_master, 0, 64, rig.c1),
               std::invalid_argument);
  EXPECT_THROW(rig.eng.bind_domain(3, 0, 64, 99), std::out_of_range);
}

// --- soc::run_topology on the flat bus ----------------------------------------

edu::soc_config mm_cfg(unsigned banks) {
  edu::soc_config cfg;
  cfg.l1.size = 4 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 4u << 20;
  cfg.mem_timing.banks = banks;
  return cfg;
}

constexpr addr_t kCpuData = 1u << 20;        // make_data_rw's data region
constexpr addr_t kDmaSrc = 2u << 20;
constexpr addr_t kDmaDst = (2u << 20) + (1u << 19);
constexpr addr_t kPeriphRegs = 3u << 20;
constexpr std::size_t kDmaBytes = 32 * 1024;

/// CPU compute + DMA bulk copy + peripheral polling, disjoint footprints.
std::vector<edu::master_desc> mixed_scenario(bool keyslot_domains) {
  std::vector<edu::master_desc> m(3);
  m[0].role = edu::master_kind::cpu;
  m[0].work = make_data_rw(3000, 64 * 1024, 0.5, 0.4, 8, 0xC0FFEE);
  m[1].role = edu::master_kind::dma;
  m[1].work = make_dma_copy(kDmaBytes, kDmaSrc, kDmaDst, 128, 0xD0);
  m[1].priority = 1;
  if (keyslot_domains) {
    m[1].domain_base = kDmaSrc;
    m[1].domain_len = 1u << 20;
  }
  m[2].role = edu::master_kind::peripheral;
  m[2].work = make_peripheral_poll(1500, kPeriphRegs, 8, 64, 16, 0x9E);
  m[2].priority = 9;
  return m;
}

class MultiMasterEquivalence : public ::testing::TestWithParam<engine_kind> {};

TEST_P(MultiMasterEquivalence, EachMasterMatchesItsSoloRun) {
  const auto scenario = mixed_scenario(GetParam() == engine_kind::inline_keyslot);
  const edu::soc_config cfg = mm_cfg(4);
  const bytes image = [] {
    bytes img(64 * 1024);
    for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<u8>(i * 13 + 5);
    return img;
  }();

  // The attacker-visible range each master owns (writes land only here).
  struct range {
    addr_t base;
    std::size_t len;
  };
  const range ranges[3] = {{kCpuData, 64 * 1024 + 64},
                           {kDmaDst, kDmaBytes + 256},
                           {kPeriphRegs, 8 * 64}};

  edu::secure_soc multi(GetParam(), cfg);
  multi.load_image(0, image);
  const arbiter_stats st = multi.run_topology(scenario).noc.bus;
  multi.flush();
  ASSERT_EQ(st.masters.size(), 3u);
  EXPECT_GT(st.txns, 100u);
  for (const master_stats& m : st.masters) EXPECT_GT(m.txns, 0u);

  for (std::size_t i = 0; i < scenario.size(); ++i) {
    edu::secure_soc solo(GetParam(), cfg);
    solo.load_image(0, image);
    const std::vector<edu::master_desc> one(scenario.begin() + i,
                                            scenario.begin() + i + 1);
    (void)solo.run_topology(one);
    solo.flush();

    const std::span<const u8> dm = multi.memory().raw().subspan(ranges[i].base,
                                                                ranges[i].len);
    const std::span<const u8> ds = solo.memory().raw().subspan(ranges[i].base,
                                                               ranges[i].len);
    EXPECT_TRUE(std::equal(dm.begin(), dm.end(), ds.begin()))
        << "master " << i << " DRAM bytes diverged under contention for "
        << edu::engine_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MultiMasterEquivalence,
                         ::testing::ValuesIn(edu::all_engines()),
                         [](const ::testing::TestParamInfo<engine_kind>& info) {
                           std::string n(edu::engine_name(info.param));
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

double aggregate_bpc(engine_kind kind, std::size_t n_masters, arb_policy policy) {
  const auto scenario = mixed_scenario(kind == engine_kind::inline_keyslot);
  const std::vector<edu::master_desc> subset(scenario.begin(),
                                             scenario.begin() + n_masters);
  edu::secure_soc soc(kind, mm_cfg(8));
  soc.load_image(0, bytes(64 * 1024, 0x5A));
  const topology flat(
      arbiter_config{policy, 8, policy == arb_policy::fixed_priority ? 16u : 0u});
  return soc.run_topology(subset, flat).noc.bus.bytes_per_cycle();
}

TEST(MultiMasterThroughput, DmaMasterRaisesAggregateForOverlapEngines) {
  // Stream-OTP's cheap pad leaves it memory-bound (big headroom); the
  // keyslot engine's serial AES-CTR core caps it at ~32/22 bytes/cycle,
  // so its gain is real but asymptotic — assert a strict increase with a
  // margin each engine can honestly clear.
  const struct {
    engine_kind kind;
    double margin;
  } cases[] = {{engine_kind::stream_otp, 1.05}, {engine_kind::inline_keyslot, 1.02}};
  for (const auto& c : cases) {
    const double solo = aggregate_bpc(c.kind, 1, arb_policy::round_robin);
    const double with_dma = aggregate_bpc(c.kind, 2, arb_policy::round_robin);
    EXPECT_GT(with_dma, solo * c.margin)
        << edu::engine_name(c.kind)
        << ": adding the bandwidth-bound DMA master must raise aggregate "
           "bytes/cycle";
  }
}

TEST(MultiMasterLatency, PriorityShieldsThePeripheral) {
  const auto scenario = mixed_scenario(false);
  auto periph_latency = [&](arb_policy policy) {
    edu::secure_soc soc(engine_kind::stream_otp, mm_cfg(8));
    soc.load_image(0, bytes(64 * 1024, 0x5A));
    const topology flat(
        arbiter_config{policy, 8, policy == arb_policy::fixed_priority ? 64u : 0u});
    const arbiter_stats st = soc.run_topology(scenario, flat).noc.bus;
    return st.masters[2].avg_txn_latency();
  };
  // The peripheral has the highest priority: fixed-priority arbitration
  // must serve it faster than the fair rotation does.
  EXPECT_LT(periph_latency(arb_policy::fixed_priority),
            periph_latency(arb_policy::round_robin));
}

TEST(MultiMasterDomains, PerMasterKeysChangeTheCiphertext) {
  const edu::soc_config cfg = mm_cfg(4);
  auto dst_bytes = [&](bool domains) {
    edu::secure_soc soc(engine_kind::inline_keyslot, cfg);
    soc.load_image(0, bytes(16 * 1024, 0x11));
    (void)soc.run_topology(mixed_scenario(domains));
    soc.flush();
    const auto raw = soc.memory().raw().subspan(kDmaDst, kDmaBytes);
    return bytes(raw.begin(), raw.end());
  };
  EXPECT_NE(dst_bytes(true), dst_bytes(false))
      << "a private domain must encipher under its own key, not the default";
}

// --- per-master bus-beat attribution -----------------------------------------

TEST(BeatAttribution, ProbeSeparatesTheMastersStreams) {
  edu::secure_soc soc(engine_kind::plaintext, mm_cfg(4));
  recording_probe probe;
  soc.attach_probe(probe);
  soc.load_image(0, bytes(64 * 1024, 0x22));
  probe.clear(); // drop install traffic; observe only the contended run
  (void)soc.run_topology(mixed_scenario(false));

  const auto ids = attack::masters_in_trace(probe);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids, (std::vector<master_id>{0, 1, 2}));

  const auto profiles = attack::per_master_profiles(probe, 32);
  ASSERT_EQ(profiles.size(), 3u);
  // DMA (master 1) traffic stays inside its copy ranges and is half writes.
  const attack::trace_profile& dma = profiles[1].second;
  EXPECT_GT(dma.write_beats, 0u);
  EXPECT_NEAR(dma.write_fraction(), 0.5, 0.05);
  EXPECT_GE(dma.hottest_line, kDmaSrc);
  // Peripheral (master 2) polls a tiny working set.
  const attack::trace_profile& periph = profiles[2].second;
  EXPECT_LE(periph.distinct_lines, 16u);
  EXPECT_GE(periph.hottest_line, kPeriphRegs);
  // The conflated profile sees everything the parts see.
  const attack::trace_profile all = attack::profile_bus_trace(probe, 32);
  EXPECT_EQ(all.read_beats + all.write_beats,
            profiles[0].second.read_beats + profiles[0].second.write_beats +
                dma.read_beats + dma.write_beats + periph.read_beats +
                periph.write_beats);
}

TEST(BeatAttribution, ScalarCpuTrafficKeepsTheDefaultTag) {
  edu::secure_soc soc(engine_kind::plaintext, mm_cfg(1));
  recording_probe probe;
  soc.attach_probe(probe);
  soc.load_image(0, bytes(16 * 1024, 0x33));
  (void)soc.run(make_sequential_code(2000, 8 * 1024, 0, 0x41));
  ASSERT_GT(probe.size(), 0u);
  for (std::size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(probe[i].master, cpu_master);
}

} // namespace
} // namespace buscrypt
