// Transaction pipeline: batch-vs-scalar functional equivalence across every
// engine, multi-bank DRAM scheduling, the memory_port default adapter, the
// native overlap paths (stream_edu, keyslot engine), and the ring-buffer
// recording probe.

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "edu/gi_edu.hpp"
#include "edu/integrity_edu.hpp"
#include "edu/soc.hpp"
#include "edu/stream_edu.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/mem_txn.hpp"
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <deque>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>

namespace buscrypt {
namespace {

using namespace sim;
using edu::engine_kind;

// --- compile-time contracts --------------------------------------------------

static_assert(edu::engine_name(engine_kind::plaintext) == "plaintext");
static_assert(edu::engine_name(engine_kind::stream_otp) == "Stream-OTP");
static_assert(edu::engine_name(engine_kind::inline_keyslot) == "Keyslot-aes-ctr");
static_assert(edu::engine_name(engine_kind::inline_keyslot) == edu::keyslot_default_name);
static_assert(edu::all_engines().size() == 16);
static_assert(edu::all_engines().front() == engine_kind::plaintext);
static_assert(!mem_txn{}.is_write());

// --- memory_port default adapter ---------------------------------------------

/// Fixed-latency scalar-only port; batches must flow through the default
/// adapter in submission order.
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

TEST(DefaultAdapter, SerialisesBatchThroughScalarPath) {
  fixed_latency_port port(1024, 30);
  bytes wr(16, 0xAB), rd1(16, 0), rd2(16, 0xFF);
  mem_txn batch[3] = {mem_txn::write_of(0x40, wr),
                      mem_txn::read_of(0x40, rd1),
                      mem_txn::read_of(0x80, rd2)};
  port.submit(batch);

  EXPECT_EQ(port.writes, 1u);
  EXPECT_EQ(port.reads, 2u);
  // Functional order: the read at 0x40 must observe the write before it.
  EXPECT_EQ(rd1, bytes(16, 0xAB));
  EXPECT_EQ(rd2, bytes(16, 0x00));
  // Serial timing: completes are cumulative and monotone.
  EXPECT_EQ(batch[0].complete_cycle, 30u);
  EXPECT_EQ(batch[1].complete_cycle, 60u);
  EXPECT_EQ(batch[2].complete_cycle, 90u);
  EXPECT_EQ(port.drain(), 90u);
  EXPECT_EQ(port.drain(), 0u) << "drain resets the accumulator";
}

// --- multi-bank DRAM ---------------------------------------------------------

dram_timing banked_timing(unsigned banks) {
  dram_timing t;
  t.banks = banks;
  return t;
}

TEST(MultiBankDram, BankOfInterleavesRows) {
  dram d(1 << 20, banked_timing(4));
  const std::size_t row = d.timing().row_size;
  EXPECT_EQ(d.bank_of(0), 0u);
  EXPECT_EQ(d.bank_of(row), 1u);
  EXPECT_EQ(d.bank_of(3 * row), 3u);
  EXPECT_EQ(d.bank_of(4 * row), 0u);
}

TEST(MultiBankDram, PerBankOpenRows) {
  dram d(1 << 20, banked_timing(2));
  const std::size_t row = d.timing().row_size;
  EXPECT_EQ(d.first_latency(0), d.timing().row_miss);       // bank 0 cold
  EXPECT_EQ(d.first_latency(row), d.timing().row_miss);     // bank 1 cold
  EXPECT_EQ(d.first_latency(64), d.timing().row_hit);       // bank 0 still open
  EXPECT_EQ(d.first_latency(2 * row), d.timing().row_miss); // bank 0 conflict
  EXPECT_EQ(d.first_latency(row + 64), d.timing().row_hit); // bank 1 untouched
  EXPECT_EQ(d.row_hits(), 2u);
  EXPECT_EQ(d.row_misses(), 3u);
}

TEST(MultiBankDram, RejectsZeroBanks) {
  EXPECT_THROW(dram(4096, banked_timing(0)), std::invalid_argument);
}

TEST(BankSchedule, DistinctBanksOverlapActivateLatency) {
  dram d(1 << 20, banked_timing(4));
  external_memory em(d);
  const std::size_t row = d.timing().row_size;

  bytes buf(4 * 32);
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < 4; ++i)
    batch.push_back(mem_txn::read_of(i * row, std::span<u8>(buf.data() + i * 32, 32)));
  em.submit(batch);

  // All four activates run concurrently (one per bank); only the 4-beat
  // bursts serialise on the bus: 46 + 4 * (4 * 2) = 78, not 4 * 54.
  const cycles burst = d.burst_cycles(32);
  EXPECT_EQ(em.drain(), d.timing().row_miss + 4 * burst);
}

TEST(BankSchedule, SameBankSerialisesLikeScalar) {
  dram d(1 << 20, banked_timing(4));
  external_memory em(d);
  const std::size_t stride = d.timing().row_size * 4; // same bank, new row

  bytes buf(4 * 32);
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < 4; ++i)
    batch.push_back(mem_txn::read_of(i * stride, std::span<u8>(buf.data() + i * 32, 32)));
  em.submit(batch);

  const cycles per_op = d.timing().row_miss + d.burst_cycles(32);
  EXPECT_EQ(em.drain(), 4 * per_op) << "bank conflicts leave nothing to overlap";
}

TEST(BankSchedule, SingleBankBatchMatchesScalarTiming) {
  const dram_timing t = banked_timing(1);
  dram d_scalar(1 << 20, t), d_batch(1 << 20, t);
  external_memory scalar(d_scalar), batched(d_batch);

  const addr_t addrs[] = {0, 64, 4096, 128, 1 << 16, 192};
  bytes buf(32);
  cycles scalar_total = 0;
  for (addr_t a : addrs) scalar_total += scalar.read(a, buf);

  bytes bufs(std::size(addrs) * 32);
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < std::size(addrs); ++i)
    batch.push_back(mem_txn::read_of(addrs[i], std::span<u8>(bufs.data() + i * 32, 32)));
  batched.submit(batch);

  EXPECT_EQ(batched.drain(), scalar_total);
}

TEST(BankSchedule, ProbeBeatsTimestampedFromSchedule) {
  dram d(1 << 20, banked_timing(4));
  external_memory em(d);
  recording_probe probe;
  em.attach(probe);
  const std::size_t row = d.timing().row_size;

  bytes buf(64);
  mem_txn batch[2] = {mem_txn::read_of(0, std::span<u8>(buf.data(), 32)),
                      mem_txn::read_of(row, std::span<u8>(buf.data() + 32, 32))};
  em.submit(batch);
  (void)em.drain();

  ASSERT_EQ(probe.log().size(), 8u); // 4 beats per 32-byte burst
  // Beats are monotone and the second burst starts right after the first
  // releases the bus (its activate overlapped on the other bank).
  for (std::size_t i = 1; i < probe.log().size(); ++i)
    EXPECT_GE(probe.log()[i].at, probe.log()[i - 1].at);
  EXPECT_EQ(probe.log()[0].at, d.timing().row_miss);
  EXPECT_EQ(probe.log()[4].at, d.timing().row_miss + d.burst_cycles(32));
  EXPECT_EQ(probe.log()[4].addr, row);
}

// --- recording probe ring buffer ---------------------------------------------

TEST(RecordingProbe, UnboundedByDefault) {
  recording_probe p;
  for (u64 i = 0; i < 100; ++i) p.on_beat({i, i, false, cpu_master, {}});
  EXPECT_EQ(p.log().size(), 100u);
  EXPECT_EQ(p.beats_seen(), 100u);
  EXPECT_EQ(p.capacity(), 0u);
}

TEST(RecordingProbe, RingDropsOldestKeepsOrder) {
  recording_probe p(4);
  for (u64 i = 0; i < 10; ++i) p.on_beat({i, 0x100 + i, false, cpu_master, {}});
  EXPECT_EQ(p.beats_seen(), 10u);
  ASSERT_EQ(p.log().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p.log()[i].at, 6 + i) << "oldest-first after wrap";
    EXPECT_EQ(p.log()[i].addr, 0x106 + i);
  }
  // Keep observing after normalisation: order stays coherent.
  p.on_beat({10, 0x10A, false, cpu_master, {}});
  ASSERT_EQ(p.log().size(), 4u);
  EXPECT_EQ(p.log().back().at, 10u);
  EXPECT_EQ(p.log().front().at, 7u);
  p.clear();
  EXPECT_EQ(p.beats_seen(), 0u);
  EXPECT_TRUE(p.log().empty());
}

// --- batch-vs-scalar equivalence across every engine -------------------------

edu::soc_config pipeline_cfg(unsigned banks) {
  edu::soc_config cfg;
  cfg.l1.size = 4 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 4u << 20;
  cfg.mem_timing.banks = banks;
  return cfg;
}

workload equivalence_workload() {
  // Random data mix with stores: touches many rows, exercises write paths.
  workload w = make_data_rw(4000, 128 * 1024, 0.6, 0.5, 8, 0xBA7C4);
  // Tack on a pointer chase so read-after-write and bank mixing both occur.
  workload chase = make_pointer_chase(1500, 128 * 1024, 0xBA7C5);
  w.accesses.insert(w.accesses.end(), chase.accesses.begin(), chase.accesses.end());
  return w;
}

class EngineBatchEquivalence : public ::testing::TestWithParam<engine_kind> {};

TEST_P(EngineBatchEquivalence, BatchedSubmissionMatchesScalarBytes) {
  const workload w = equivalence_workload();
  const edu::soc_config cfg = pipeline_cfg(4);
  const bytes image = [] {
    bytes img(256 * 1024);
    for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<u8>(i * 31 + 7);
    return img;
  }();

  edu::secure_soc scalar_soc(GetParam(), cfg);
  edu::secure_soc batched_soc(GetParam(), cfg);
  // First region is code (read-only under compress_otp), second is the
  // writable data region the workload stores into — same split run_engine
  // uses.
  scalar_soc.load_image(0, image);
  batched_soc.load_image(0, image);
  scalar_soc.load_image(1 << 20, bytes(256 * 1024, 0));
  batched_soc.load_image(1 << 20, bytes(256 * 1024, 0));

  const throughput_stats s = scalar_soc.run_throughput(w, 1);
  const throughput_stats b = batched_soc.run_throughput(w, 8);
  EXPECT_EQ(s.ops, b.ops);
  EXPECT_EQ(s.bytes, b.bytes);
  EXPECT_GT(s.ops, 100u) << "workload must actually exercise the pipeline";

  scalar_soc.flush();
  batched_soc.flush();

  // The survey's attacker-visible state: every DRAM byte must match.
  const std::span<const u8> ds = scalar_soc.memory().raw();
  const std::span<const u8> db = batched_soc.memory().raw();
  ASSERT_EQ(ds.size(), db.size());
  EXPECT_TRUE(std::equal(ds.begin(), ds.end(), db.begin()))
      << "batched path altered DRAM ciphertext for " << edu::engine_name(GetParam());

  // And the decrypt path agrees on the plaintext view of both regions.
  EXPECT_EQ(scalar_soc.read_back(0, image.size()),
            batched_soc.read_back(0, image.size()));
  EXPECT_EQ(scalar_soc.read_back(1 << 20, 256 * 1024),
            batched_soc.read_back(1 << 20, 256 * 1024));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineBatchEquivalence,
                         ::testing::ValuesIn(edu::all_engines()),
                         [](const ::testing::TestParamInfo<engine_kind>& info) {
                           std::string n(edu::engine_name(info.param));
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// --- native overlap paths deliver measurable throughput ----------------------

double bpc_for(engine_kind kind, std::size_t batch_txns) {
  edu::secure_soc soc(kind, pipeline_cfg(8));
  const workload w = make_jumpy_code(12'000, 256 * 1024, 0.15, 0x7117);
  soc.load_image(0, bytes(256 * 1024, 0x5A));
  return soc.run_throughput(w, batch_txns).bytes_per_cycle();
}

TEST(BatchThroughput, StreamOtpBatchedBeatsScalar) {
  const double scalar = bpc_for(engine_kind::stream_otp, 1);
  const double batched = bpc_for(engine_kind::stream_otp, 16);
  EXPECT_GT(batched, scalar * 1.10)
      << "keystream-parallel batch path should beat scalar issue";
}

TEST(BatchThroughput, InlineKeyslotBatchedBeatsScalar) {
  const double scalar = bpc_for(engine_kind::inline_keyslot, 1);
  const double batched = bpc_for(engine_kind::inline_keyslot, 16);
  EXPECT_GT(batched, scalar * 1.10)
      << "keyslot engine batch path should beat scalar issue";
}

TEST(BatchThroughput, PlaintextGainsFromBankOverlapAlone) {
  const double scalar = bpc_for(engine_kind::plaintext, 1);
  const double batched = bpc_for(engine_kind::plaintext, 16);
  EXPECT_GT(batched, scalar) << "multi-bank overlap alone should help";
}

TEST(BatchThroughput, BoundedProbeOnThroughputRunStaysBounded) {
  edu::secure_soc soc(engine_kind::plaintext, pipeline_cfg(2));
  recording_probe probe(256); // a long run must not grow the probe past this
  soc.attach_probe(probe);
  const workload w = make_streaming(4000, 64 * 1024, 4, 0x99);
  soc.load_image(0, bytes(64 * 1024, 1));
  (void)soc.run_throughput(w, 8);
  EXPECT_LE(probe.log().size(), 256u);
  EXPECT_GT(probe.beats_seen(), probe.log().size());
}

TEST(BatchThroughput, BatchCountersTrack) {
  edu::secure_soc soc(engine_kind::stream_otp, pipeline_cfg(4));
  const workload w = make_streaming(2000, 64 * 1024, 8, 0xF00D);
  soc.load_image(0, bytes(64 * 1024, 0x11));
  (void)soc.run_throughput(w, 8);
  EXPECT_GT(soc.engine().stats().batches, 0u);
  EXPECT_GT(soc.engine().stats().batched_txns, soc.engine().stats().batches);
}

// --- engine batch path under slot contention ---------------------------------

TEST(EngineBatchPath, TwoContextsOneSlotStaysFunctionallyExact) {
  // One hardware slot, two contexts in the same batch: the second context
  // takes the software fallback mid-batch; bytes must match scalar issue.
  auto build = [](fixed_latency_port& port, engine::keyslot_manager& slots,
                  engine::bus_encryption_engine& eng) {
    const bytes k1(16, 0x11), k2(16, 0x22);
    const auto c1 = eng.create_context({"aes-ctr", k1, 32});
    const auto c2 = eng.create_context({"aes-cbc", k2, 32});
    eng.map_region(0, 4096, c1);
    eng.map_region(4096, 4096, c2);
    (void)port;
    (void)slots;
  };

  fixed_latency_port ps(16 * 1024, 20), pb(16 * 1024, 20);
  engine::keyslot_manager ss(engine::backend_registry::builtin(), 1);
  engine::keyslot_manager sb(engine::backend_registry::builtin(), 1);
  engine::bus_encryption_engine scalar_eng(ps, ss);
  engine::bus_encryption_engine batch_eng(pb, sb);
  build(ps, ss, scalar_eng);
  build(pb, sb, batch_eng);

  const addr_t addrs[] = {0, 4096, 64, 4096 + 64, 128, 4096 + 128};
  bytes data(32);
  for (std::size_t i = 0; i < std::size(addrs); ++i) {
    fill_store_pattern(addrs[i], data);
    (void)scalar_eng.write(addrs[i], data);
  }

  bytes lanes(std::size(addrs) * 32);
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < std::size(addrs); ++i) {
    const std::span<u8> lane(lanes.data() + i * 32, 32);
    fill_store_pattern(addrs[i], lane);
    batch.push_back(mem_txn::write_of(addrs[i], lane));
  }
  batch_eng.submit(batch);
  EXPECT_GT(batch_eng.drain(), 0u);

  EXPECT_EQ(ps.image_, pb.image_) << "batched ciphertext diverged from scalar";
  EXPECT_GT(batch_eng.stats().batch_native, 0u);

  // Decrypt path agrees too (and sees the data written through the batch).
  bytes plain(32);
  batch_eng.read_plain(4096, plain);
  bytes expect(32);
  fill_store_pattern(4096, expect);
  EXPECT_EQ(plain, expect);
}

TEST(EngineBatchPath, SlotContentionRetiresWindowInsteadOfFallingBack) {
  // One hardware slot, two contexts: scalar issue never falls back
  // because each request releases its slot; the batch path must match by
  // retiring its window on a pool miss — not silently take a software
  // fallback the scalar path never used.
  fixed_latency_port ps(16 * 1024, 20), pb(16 * 1024, 20);
  engine::keyslot_manager ss(engine::backend_registry::builtin(), 1);
  engine::keyslot_manager sb(engine::backend_registry::builtin(), 1);
  engine::bus_encryption_engine scalar_eng(ps, ss);
  engine::bus_encryption_engine batch_eng(pb, sb);
  for (engine::bus_encryption_engine* e : {&scalar_eng, &batch_eng}) {
    const auto c1 = e->create_context({"aes-ctr", bytes(16, 0x11), 32});
    const auto c2 = e->create_context({"aes-cbc", bytes(16, 0x22), 32});
    e->map_region(0, 4096, c1);
    e->map_region(4096, 4096, c2);
  }

  const addr_t addrs[] = {0, 4096, 64, 4096 + 64};
  bytes data(32);
  for (const addr_t a : addrs) {
    fill_store_pattern(a, data);
    (void)scalar_eng.write(a, data);
  }

  bytes lanes(std::size(addrs) * 32);
  std::vector<mem_txn> batch;
  for (std::size_t i = 0; i < std::size(addrs); ++i) {
    const std::span<u8> lane(lanes.data() + i * 32, 32);
    fill_store_pattern(addrs[i], lane);
    batch.push_back(mem_txn::write_of(addrs[i], lane));
  }
  EXPECT_NO_THROW(batch_eng.submit(batch));
  EXPECT_GT(batch_eng.drain(), 0u);

  EXPECT_EQ(scalar_eng.stats().fallbacks, 0u);
  EXPECT_EQ(batch_eng.stats().fallbacks, 0u);
  EXPECT_GT(batch_eng.stats().batch_native, 0u);
  EXPECT_EQ(ps.image_, pb.image_) << "contended batch diverged from scalar";

  // Mixed batch: an eligible txn pins its context, then an unaligned txn
  // in the *other* region detours to the scalar path — the detour must see
  // a released pool, not the batch's pin.
  bytes full(32), partial(8, 0xCD);
  fill_store_pattern(128, full);
  std::vector<mem_txn> mixed;
  mixed.push_back(mem_txn::write_of(128, full));         // ctx 1, eligible
  mixed.push_back(mem_txn::write_of(4096 + 4, partial)); // ctx 2, RMW detour
  EXPECT_NO_THROW(batch_eng.submit(mixed));
  (void)batch_eng.drain();
  EXPECT_EQ(batch_eng.stats().fallbacks, 0u);

  (void)scalar_eng.write(128, full);
  (void)scalar_eng.write(4096 + 4, partial);
  EXPECT_EQ(ps.image_, pb.image_) << "mixed contended batch diverged from scalar";
}

TEST(EngineBatchPath, DataDependentDecipherCannotOverlapItsOwnFetch) {
  // aes-cbc decrypt causally needs the fetched ciphertext, so a single-txn
  // batched read collapses to the scalar mem + crypto; aes-ctr's pad needs
  // only the DUN (Fig. 2a) and overlaps the fetch down to max(mem, crypto).
  auto timed_read = [](const std::string& backend) {
    fixed_latency_port port(4096, 200);
    engine::keyslot_manager slots(engine::backend_registry::builtin(), 2);
    engine::bus_encryption_engine eng(port, slots);
    const auto ctx = eng.create_context({backend, bytes(16, 0x44), 32});
    eng.map_region(0, 4096, ctx);
    bytes line(32);
    fill_store_pattern(0, line);
    (void)eng.write(0, line); // programs the slot; reads below hit it warm
    const cycles scalar = eng.read(0, line);
    bytes out(32);
    std::vector<mem_txn> batch;
    batch.push_back(mem_txn::read_of(0, out));
    eng.submit(batch);
    return std::pair<cycles, cycles>(scalar, eng.drain());
  };

  const auto [cbc_scalar, cbc_batched] = timed_read("aes-cbc");
  EXPECT_EQ(cbc_batched, cbc_scalar)
      << "block-mode decipher was hidden behind its own fetch";

  const auto [ctr_scalar, ctr_batched] = timed_read("aes-ctr");
  EXPECT_LT(ctr_batched, ctr_scalar)
      << "precomputable pad should overlap the fetch";
}

TEST(EngineBatchPath, UnalignedTxnDetoursWithoutReordering) {
  fixed_latency_port port(8 * 1024, 10);
  engine::keyslot_manager slots(engine::backend_registry::builtin(), 2);
  engine::bus_encryption_engine eng(port, slots);
  const auto ctx = eng.create_context({"aes-ctr", bytes(16, 0x33), 32});
  eng.map_region(0, 8 * 1024, ctx);

  // Aligned write, then an overlapping *unaligned* write (RMW detour),
  // then an aligned read of the same unit: order must hold.
  bytes full(32), partial(8, 0xEE), out(32);
  fill_store_pattern(0, full);
  std::vector<mem_txn> batch;
  batch.push_back(mem_txn::write_of(0, full));
  batch.push_back(mem_txn::write_of(4, partial)); // ineligible: RMW
  batch.push_back(mem_txn::read_of(0, out));
  eng.submit(batch);
  const cycles total = eng.drain();

  // Per-txn stamps: each txn carries its own completion time, monotone in
  // issue order and bounded by the batch makespan.
  EXPECT_GT(batch[0].complete_cycle, 0u);
  EXPECT_LE(batch[0].complete_cycle, batch[1].complete_cycle);
  EXPECT_LE(batch[1].complete_cycle, batch[2].complete_cycle);
  EXPECT_LE(batch[2].complete_cycle, total);

  bytes expect = full;
  std::copy(partial.begin(), partial.end(), expect.begin() + 4);
  EXPECT_EQ(out, expect);
  EXPECT_GT(eng.stats().rmw_ops, 0u);
}

// --- golden stamps of the engine's native batch path -------------------------
// The equivalence sweeps above pin bytes only. These cases also pin the
// timing of the engine's native path: every completion stamp, each drain()
// makespan, the engine and authenticator counters, the bytes every read
// returned and the DRAM image. They run over banked DRAM, so bank overlap,
// tag-line side traffic, the cipher-core, MAC-unit and pad-overlap lanes
// and the per-window keyslot pins all show in the stamps.

using engine::auth_config;
using engine::auth_mode;
using engine::bus_encryption_engine;

constexpr std::size_t golden_du = 32;

/// One transaction of a golden batch.
struct golden_op {
  txn_op op = txn_op::read;
  addr_t addr = 0;
  std::size_t len = golden_du;
};

golden_op rd(addr_t a, std::size_t len = golden_du) { return {txn_op::read, a, len}; }
golden_op wr(addr_t a, std::size_t len = golden_du) { return {txn_op::write, a, len}; }

/// Seeded whole-unit traffic in [base, base + span): 1-4 units per txn.
std::vector<golden_op> seeded_ops(u64 seed, std::size_t n, addr_t base, std::size_t span,
                                  double write_p) {
  rng r(seed);
  std::vector<golden_op> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = golden_du * r.between(1, 4);
    const addr_t a = base + golden_du * r.below((span - len) / golden_du + 1);
    ops.push_back(r.chance(write_p) ? wr(a, len) : rd(a, len));
  }
  return ops;
}

std::vector<golden_op> concat(std::vector<golden_op> a, const std::vector<golden_op>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// What a run of batches produced, flattened to comparable text.
struct golden_result {
  std::string timing;   ///< each batch: its stamps, then "-> makespan"
  std::string counters; ///< engine_stats
  std::string auth;     ///< auth_stats; empty without an authenticator
  std::string fnv;      ///< FNV-1a of every byte the reads returned, and of DRAM
};

/// "name=value" pairs joined by spaces.
std::string kv_line(std::initializer_list<std::pair<const char*, u64>> kvs) {
  std::string o;
  for (const auto& [name, v] : kvs)
    o += (o.empty() ? "" : " ") + std::string(name) + "=" + std::to_string(v);
  return o;
}

std::string engine_line(const engine::engine_stats& s) {
  return kv_line({{"reads", s.reads}, {"writes", s.writes}, {"units", s.units},
                  {"rmw", s.rmw_ops}, {"fallbacks", s.fallbacks},
                  {"passthrough", s.passthrough}, {"batches", s.batches},
                  {"batched", s.batched_txns}, {"native", s.batch_native},
                  {"domain_faults", s.domain_faults},
                  {"fw_denials", s.firewall_denials},
                  {"integrity_faults", s.integrity_faults},
                  {"stalls", s.reprogram_stalls},
                  {"stall_cycles", s.reprogram_stall_cycles},
                  {"crypto", s.crypto_cycles}});
}

std::string auth_line(const engine::auth_stats& s) {
  return kv_line({{"verifies", s.verifies}, {"updates", s.updates}, {"faults", s.faults},
                  {"hits", s.tag_hits}, {"misses", s.tag_misses},
                  {"bus_reads", s.tag_bus_reads}, {"bus_writes", s.tag_bus_writes},
                  {"nodes", s.nodes_walked}, {"auth_cycles", s.auth_cycles}});
}

std::string edu_line(const edu::edu_stats& s) {
  return kv_line({{"reads", s.reads}, {"writes", s.writes}, {"blocks", s.cipher_blocks},
                  {"crypto", s.crypto_cycles}, {"rmw", s.rmw_ops}, {"batches", s.batches},
                  {"batched", s.batched_txns}});
}

std::string hex64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Submit and drain each batch on \p port in turn. Returns each batch's
/// stamps, then "-> makespan"; appends every byte the reads returned to
/// \p reads.
std::string run_golden_batches(memory_port& port,
                               const std::vector<std::vector<golden_op>>& batches,
                               bytes& reads) {
  std::string timing;
  for (const std::vector<golden_op>& ops : batches) {
    std::deque<bytes> bufs;
    std::vector<mem_txn> batch;
    for (const golden_op& op : ops) {
      bytes& b = bufs.emplace_back(op.len);
      if (op.op == txn_op::write) fill_store_pattern(op.addr + 7 * batch.size(), b);
      batch.push_back({.op = op.op, .addr = op.addr, .data = b});
    }
    port.submit(batch);
    const cycles makespan = port.drain();
    if (!timing.empty()) timing += " | ";
    for (const mem_txn& t : batch) {
      timing += std::to_string(t.complete_cycle) + " ";
      if (!t.is_write()) reads.insert(reads.end(), t.data.begin(), t.data.end());
    }
    timing += "-> " + std::to_string(makespan);
  }
  return timing;
}

/// The keyslot engine over 256 KiB of 4-bank DRAM.
struct golden_rig {
  dram mem{256 * 1024, banked_timing(4)};
  external_memory ext{mem};
  engine::keyslot_manager slots;
  bus_encryption_engine eng;
  engine::memory_authenticator* auth = nullptr;

  explicit golden_rig(std::size_t pool)
      : slots(engine::backend_registry::builtin(), pool), eng(ext, slots) {}

  /// Map [base, base + len) to a fresh context and install a patterned
  /// image through it.
  bus_encryption_engine::context_id region(const std::string& backend, addr_t base,
                                           std::size_t len, u8 key) {
    const auto ctx = eng.create_context({backend, bytes(16, key), golden_du});
    eng.map_region(base, len, ctx);
    bytes image(len);
    fill_store_pattern(base ^ 0x5A5A, image);
    eng.install(base, image);
    return ctx;
  }

  /// Guard [base, base + len) of \p ctx with \p mode (a 2-line tag cache,
  /// so tag lines miss and evict).
  void guard(bus_encryption_engine::context_id ctx, auth_mode mode, addr_t base,
             std::size_t len) {
    auth_config cfg;
    cfg.mode = mode;
    cfg.key = bytes(16, 0x6B);
    cfg.base = base;
    cfg.limit = base + len;
    cfg.tag_bytes = mode == auth_mode::area ? 4 : 8;
    cfg.tag_base = 192 * 1024;
    cfg.tag_cache_entries = 2;
    auth = &eng.attach_auth(ctx, cfg);
  }

  /// Submit and drain each batch in turn, counting from clean stats.
  golden_result run(const std::vector<std::vector<golden_op>>& batches) {
    eng.reset_stats();
    if (auth != nullptr) auth->reset_stats();
    golden_result out;
    bytes reads;
    out.timing = run_golden_batches(eng, batches, reads);
    out.counters = engine_line(eng.stats());
    if (auth != nullptr) out.auth = auth_line(auth->stats());
    out.fnv = "read=" + hex64(fnv1a(reads)) + " dram=" + hex64(fnv1a(mem.raw()));
    return out;
  }
};

TEST(EngineGoldenStamps, CtrWithoutAuth) {
  golden_rig rig(4);
  (void)rig.region("aes-ctr", 0, 16 * 1024, 0x11);
  const golden_result got = rig.run({seeded_ops(0xC7A1, 16, 0, 16 * 1024, 0.5),
                                     seeded_ops(0xC7A2, 12, 0, 16 * 1024, 0.0)});
  EXPECT_EQ(got.timing,
            "42 78 128 144 168 190 268 294 310 326 334 358 390 436 444 506 -> 924 | 34 "
            "60 122 154 208 216 232 282 306 338 370 402 -> 704");
  EXPECT_EQ(got.counters,
            "reads=18 writes=10 units=74 rmw=0 fallbacks=0 passthrough=0 batches=2 "
            "batched=28 native=28 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=0 stall_cycles=0 crypto=1628");
  EXPECT_EQ(got.fnv, "read=845363a5627d983d dram=e3602d9e95643310");
}

// A write then a read of unit 0x100 in one window (the read verifies
// against the staged tag), then reads whose tags share one 64-byte tag
// line (one fetch, four verifies).
const std::vector<golden_op> mac_hand = {wr(0x100), rd(0x100), rd(0x200), rd(0x220),
                                         rd(0x240, 64)};

TEST(EngineGoldenStamps, CtrMac) {
  golden_rig rig(4);
  rig.guard(rig.region("aes-ctr", 0, 16 * 1024, 0x22), auth_mode::mac, 0, 16 * 1024);
  const golden_result got =
      rig.run({concat(mac_hand, seeded_ops(0xAC01, 12, 0, 16 * 1024, 0.4)),
               seeded_ops(0xAC02, 12, 0, 16 * 1024, 0.3)});
  EXPECT_EQ(got.timing,
            "54 520 546 572 624 624 624 650 746 746 768 818 896 998 1190 1270 1348 -> "
            "1348 | 62 138 416 416 494 546 650 728 832 832 948 1076 -> 1076");
  EXPECT_EQ(got.counters,
            "reads=16 writes=13 units=68 rmw=0 fallbacks=0 passthrough=0 batches=2 "
            "batched=29 native=29 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=0 stall_cycles=0 crypto=1496");
  EXPECT_EQ(got.auth,
            "verifies=35 updates=33 faults=0 hits=1 misses=34 bus_reads=16 "
            "bus_writes=33 nodes=0 auth_cycles=1768");
  EXPECT_EQ(got.fnv, "read=7880fe8377126d58 dram=d09b3fa652cf5905");
}

TEST(EngineGoldenStamps, EcbMac) {
  golden_rig rig(4);
  rig.guard(rig.region("aes-ecb", 0, 16 * 1024, 0x33), auth_mode::mac, 0, 16 * 1024);
  const golden_result got =
      rig.run({concat(mac_hand, seeded_ops(0xEC01, 12, 0, 16 * 1024, 0.4)),
               seeded_ops(0xEC02, 12, 0, 16 * 1024, 0.3)});
  EXPECT_EQ(got.timing,
            "54 572 598 624 676 702 780 780 858 962 962 962 1112 1112 1190 1244 1340 "
            "-> 1352 | 170 242 242 280 434 544 570 678 756 834 938 1016 -> 1016");
  EXPECT_EQ(got.counters,
            "reads=19 writes=10 units=70 rmw=0 fallbacks=0 passthrough=0 batches=2 "
            "batched=29 native=29 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=0 stall_cycles=0 crypto=1540");
  EXPECT_EQ(got.auth,
            "verifies=47 updates=23 faults=0 hits=5 misses=42 bus_reads=16 "
            "bus_writes=23 nodes=0 auth_cycles=1820");
  EXPECT_EQ(got.fnv, "read=eb14eefa128e6f5c dram=21407f2c4b8d8ea8");
}

TEST(EngineGoldenStamps, EcbArea) {
  // A read before a write of unit 0x300 (the read unseals against its
  // staging-time snapshot), and a read straddling the end of the guarded
  // window (one sealed unit, one plain unit).
  golden_rig rig(4);
  rig.guard(rig.region("aes-ecb", 0, 16 * 1024, 0x44), auth_mode::area, 0, 8 * 1024);
  const std::vector<golden_op> hand = {rd(0x300), wr(0x300), rd(0x300), rd(0x1FE0, 64)};
  const golden_result got =
      rig.run({concat(hand, seeded_ops(0xA4E1, 12, 0, 16 * 1024, 0.4)),
               seeded_ops(0xA4E2, 12, 0, 16 * 1024, 0.3)});
  EXPECT_EQ(got.timing,
            "257 257 306 377 465 465 563 629 776 864 886 886 1082 1104 1170 1170 -> "
            "1170 | 62 86 94 529 529 627 715 715 911 911 933 982 -> 982");
  EXPECT_EQ(got.counters,
            "reads=18 writes=10 units=61 rmw=0 fallbacks=0 passthrough=0 batches=2 "
            "batched=28 native=28 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=0 stall_cycles=0 crypto=2152");
  EXPECT_EQ(got.auth,
            "verifies=19 updates=11 faults=0 hits=0 misses=0 bus_reads=0 bus_writes=0 "
            "nodes=0 auth_cycles=1107");
  EXPECT_EQ(got.fnv, "read=ef874256d60b8000 dram=46a73794e1c29910");
}

TEST(EngineGoldenStamps, CtrAndEcbContextsInOneBatch) {
  golden_rig rig(4);
  (void)rig.region("aes-ctr", 0, 8 * 1024, 0x55);
  (void)rig.region("aes-ecb", 8 * 1024, 8 * 1024, 0x56);
  const golden_result got = rig.run({seeded_ops(0x2C01, 20, 0, 16 * 1024, 0.5),
                                     seeded_ops(0x2C02, 16, 0, 16 * 1024, 0.2)});
  EXPECT_EQ(got.timing,
            "462 462 506 506 506 550 550 550 550 550 572 572 572 572 572 572 572 572 "
            "590 632 -> 632 | 132 198 198 198 288 332 332 332 344 374 374 402 410 568 "
            "612 612 -> 612");
  EXPECT_EQ(got.counters,
            "reads=21 writes=15 units=91 rmw=0 fallbacks=0 passthrough=0 batches=2 "
            "batched=36 native=36 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=0 stall_cycles=0 crypto=2002");
  EXPECT_EQ(got.fnv, "read=0f1b9f223af3e6ff dram=bbe07af3afecfb67");
}

TEST(EngineGoldenStamps, OneSlotTwoContexts) {
  // Every context switch misses the 1-slot pool: the window retires and
  // the next pin reprograms the slot.
  golden_rig rig(1);
  (void)rig.region("aes-ctr", 0, 8 * 1024, 0x61);
  (void)rig.region("aes-cbc", 8 * 1024, 8 * 1024, 0x62);
  const std::vector<golden_op> hand = {wr(0x40),  rd(0x80),   rd(0x2040), wr(0x2080, 64),
                                       rd(0x40),  rd(0x2000), wr(0xC0),   rd(0x20C0)};
  const golden_result got = rig.run({hand, seeded_ops(0x1511, 12, 0, 16 * 1024, 0.5)});
  EXPECT_EQ(got.timing,
            "94 120 236 248 342 458 552 668 -> 668 | 166 284 376 518 656 656 758 758 "
            "868 984 1078 1188 -> 1188");
  EXPECT_EQ(got.counters,
            "reads=10 writes=10 units=40 rmw=0 fallbacks=0 passthrough=0 batches=2 "
            "batched=20 native=20 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=14 stall_cycles=560 crypto=1440");
  EXPECT_EQ(got.fnv, "read=8e65639d6c1d03f5 dram=34cf6789a71bf771");
}

TEST(EngineGoldenStamps, EcbWithoutAuth) {
  // Block-mode reads gate on their own data on the cipher core; writes
  // encipher up front. Reads and writes alternate across all four banks.
  golden_rig rig(4);
  (void)rig.region("aes-ecb", 0, 16 * 1024, 0x71);
  const std::vector<golden_op> hand = {wr(0x800),  rd(0x0, 64), rd(0x1000),
                                       rd(0x1800), wr(0x840),   wr(0x2040, 64),
                                       rd(0x840),  rd(0x0, 64), rd(0x1000)};
  const golden_result got = rig.run({hand, seeded_ops(0x2E61, 12, 0, 16 * 1024, 0.3)});
  EXPECT_EQ(got.timing,
            "54 132 154 176 176 176 198 242 264 -> 264 | 54 70 374 374 374 462 550 550 "
            "572 572 616 638 -> 638");
  EXPECT_EQ(got.counters,
            "reads=12 writes=9 units=41 rmw=0 fallbacks=0 passthrough=0 batches=2 "
            "batched=21 native=21 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=0 stall_cycles=0 crypto=902");
  EXPECT_EQ(got.fnv, "read=880b7073d4148591 dram=388ea86332762e98");
}

TEST(EngineGoldenStamps, UnalignedDetourMidBatch) {
  // The unaligned write and read detour through the scalar datapath: the
  // window before each retires first, tag side traffic included.
  golden_rig rig(4);
  rig.guard(rig.region("aes-ctr", 0, 16 * 1024, 0x81), auth_mode::mac, 0, 16 * 1024);
  const std::vector<golden_op> hand = {wr(0x100), rd(0x200),     wr(0x104, 8), rd(0x100),
                                       rd(0x400), rd(0x210, 40), wr(0x300),    rd(0x300)};
  const golden_result got =
      rig.run({concat(hand, seeded_ops(0xDE71, 8, 0, 16 * 1024, 0.4))});
  EXPECT_EQ(got.timing,
            "54 244 530 582 670 890 944 1072 1164 1330 1330 1436 1506 1568 1726 1752 "
            "-> 1752");
  EXPECT_EQ(got.counters,
            "reads=12 writes=4 units=30 rmw=1 fallbacks=0 passthrough=0 batches=1 "
            "batched=16 native=14 domain_faults=0 fw_denials=0 integrity_faults=0 "
            "stalls=0 stall_cycles=0 crypto=660");
  EXPECT_EQ(got.auth,
            "verifies=24 updates=6 faults=0 hits=3 misses=21 bus_reads=12 bus_writes=6 "
            "nodes=0 auth_cycles=780");
  EXPECT_EQ(got.fnv, "read=b81a8d8c045b060e dram=3a61e583530ba9da");
}

// --- integrity_edu's batch path ----------------------------------------------

/// integrity_edu over 256 KiB of 4-bank DRAM: 128 KiB protected with its
/// tags at 192 KiB, and a patterned 16 KiB image installed.
struct integrity_rig {
  dram mem{256 * 1024, banked_timing(4)};
  external_memory ext{mem};
  crypto::aes prf{bytes(16, 0x3C)};
  edu::integrity_edu e;

  explicit integrity_rig(edu::integrity_level level)
      : e(ext, prf, bytes(16, 0x6B),
          {.level = level, .protected_limit = 128 * 1024, .tag_base = 192 * 1024}) {
    bytes image(16 * 1024);
    fill_store_pattern(0x5A5A, image);
    e.install_image(0, image);
    e.reset_stats();
  }

  /// Corrupt one ciphertext byte of the line at \p a and power-cycle the
  /// tag cache, so the next read of the line fetches its tag again.
  void tamper(addr_t a) {
    mem.raw()[a + 5] ^= 0x20;
    e.flush_tag_cache();
  }
};

/// Forwards read()/write() and keeps memory_port's default submit(), so a
/// batch runs one txn at a time through the wrapped port's scalar path.
struct scalar_issue final : memory_port {
  explicit scalar_issue(memory_port& p) : port(&p) {}
  cycles read(addr_t a, std::span<u8> out) override { return port->read(a, out); }
  cycles write(addr_t a, std::span<const u8> in) override { return port->write(a, in); }
  memory_port* port;
};

TEST(IntegrityBatch, MatchesScalarIssueAtEveryLevel) {
  // Seeded windows of 1-8 txns over 8 KiB (32 tag lines for a 16-line tag
  // cache): txns of 1-3 whole lines ride the native path, sub-line ones
  // detour, and a tampered line is read in the window after each tamper.
  // Scalar issue of the same txns must leave the same bytes.
  for (const auto level : {edu::integrity_level::none, edu::integrity_level::mac,
                           edu::integrity_level::mac_versioned})
    for (const u64 seed : {1u, 2u, 3u, 4u}) {
      integrity_rig scalar(level);
      integrity_rig batched(level);
      scalar_issue serial(scalar.e);
      rng r(seed);
      bytes scalar_reads;
      bytes batched_reads;
      for (int w = 0; w < 60; ++w) {
        std::vector<golden_op> ops;
        if (r.chance(0.15)) {
          const addr_t a = 32 * r.below(256);
          scalar.tamper(a);
          batched.tamper(a);
          ops.push_back(rd(a));
        }
        for (u64 n = r.between(1, 8); ops.size() < n;) {
          const txn_op op = r.chance(0.4) ? txn_op::write : txn_op::read;
          if (r.chance(0.15)) ops.push_back({op, 32 * r.below(256) + 4, 8});
          else ops.push_back({op, 32 * r.below(253), 32 * r.between(1, 3)});
        }
        (void)run_golden_batches(serial, {ops}, scalar_reads);
        (void)run_golden_batches(batched.e, {ops}, batched_reads);
      }
      const std::string where = std::string(batched.e.name()) + " seed " +
                                std::to_string(seed);
      EXPECT_EQ(batched_reads, scalar_reads) << where;
      EXPECT_TRUE(std::ranges::equal(batched.mem.raw(), scalar.mem.raw())) << where;
      EXPECT_EQ(batched.e.tamper_events(), scalar.e.tamper_events()) << where;
      EXPECT_EQ(batched.e.version_ram_bytes(), scalar.e.version_ram_bytes()) << where;
      EXPECT_EQ(batched.e.tamper_events() > 0, level != edu::integrity_level::none);
    }
}

/// A write then a read of line 0x100 in one window (the read verifies
/// against the staged tag), reads of 0x200 and 0x220 whose tags share one
/// 64-byte tag line and a sub-line write that detours mid-window, plus
/// seeded traffic; then a window reading a line tampered after
/// flush_tag_cache().
golden_result integrity_golden(edu::integrity_level level) {
  integrity_rig rig(level);
  golden_result out;
  bytes reads;
  const std::vector<golden_op> hand = {wr(0x100),    rd(0x100), rd(0x200),    rd(0x220),
                                       wr(0x304, 8), rd(0x300), rd(0x240, 64)};
  const std::vector<std::vector<golden_op>> windows = {
      concat(hand, seeded_ops(0x1E01, 12, 0, 16 * 1024, 0.4)),
      seeded_ops(0x1E02, 12, 0, 16 * 1024, 0.3)};
  out.timing = run_golden_batches(rig.e, windows, reads);
  rig.tamper(0x400);
  const std::vector<golden_op> probe = {rd(0x3E0), rd(0x400), wr(0x440), rd(0x420, 64)};
  out.timing += " | " + run_golden_batches(rig.e, {probe}, reads);
  const u64 tamper = rig.e.tamper_events();
  out.counters = edu_line(rig.e.stats()) + " tamper=" + std::to_string(tamper);
  const engine::memory_authenticator* auth = rig.e.authenticator();
  const engine::auth_stats as = auth != nullptr ? auth->stats() : engine::auth_stats{};
  out.auth = kv_line({{"hits", as.tag_hits}, {"misses", as.tag_misses}});
  out.fnv = "read=" + hex64(fnv1a(reads)) + " dram=" + hex64(fnv1a(rig.mem.raw()));
  return out;
}

TEST(IntegrityGoldenStamps, Off) {
  const golden_result got = integrity_golden(edu::integrity_level::none);
  EXPECT_EQ(got.timing,
            "54 81 107 133 205 232 284 370 422 536 622 630 689 804 900 933 942 1073 "
            "1107 -> 1145 | 53 112 173 253 357 442 451 459 502 537 596 605 -> 632 | "
            "55 81 106 159 -> 163");
  EXPECT_EQ(got.counters,
            "reads=25 writes=11 blocks=154 crypto=466 rmw=1 batches=3 batched=35 "
            "tamper=0");
  EXPECT_EQ(got.auth, "hits=0 misses=0");
  EXPECT_EQ(got.fnv, "read=c3223f3cb1cb02cb dram=3d733dc656c8accd");
}

// The two MAC levels cost the same: only the version in the pads and tags,
// so the DRAM image, tells them apart.
const char* const integrity_mac_timing =
    "54 182 270 324 571 883 935 1039 1091 1195 1299 1325 1325 1429 1533 1543 1687 "
    "1793 1951 -> 2037 | 364 364 442 494 598 618 716 762 816 940 994 1076 -> 1104 | "
    "142 258 286 440 -> 445";
const char* const integrity_mac_counters =
    "reads=25 writes=11 blocks=154 crypto=2452 rmw=1 batches=3 batched=35 tamper=1";

TEST(IntegrityGoldenStamps, Mac) {
  const golden_result got = integrity_golden(edu::integrity_level::mac);
  EXPECT_EQ(got.timing, integrity_mac_timing);
  EXPECT_EQ(got.counters, integrity_mac_counters);
  EXPECT_EQ(got.auth, "hits=6 misses=45");
  EXPECT_EQ(got.fnv, "read=c3223f3cb1cb02cb dram=31f7c7c438026df7");
}

TEST(IntegrityGoldenStamps, MacVersioned) {
  const golden_result got = integrity_golden(edu::integrity_level::mac_versioned);
  EXPECT_EQ(got.timing, integrity_mac_timing);
  EXPECT_EQ(got.counters, integrity_mac_counters);
  EXPECT_EQ(got.auth, "hits=6 misses=45");
  EXPECT_EQ(got.fnv, "read=c3223f3cb1cb02cb dram=b0f162cbf3b71fe5");
}

// --- stream_edu's batch path -------------------------------------------------

/// A write then a read of line 0x100 in one window, a sub-line write and a
/// 64-byte read, plus seeded traffic; then a seeded window. stream_edu runs
/// over 256 KiB of 4-bank DRAM with a patterned 16 KiB image installed.
golden_result stream_golden(bool parallel_keystream) {
  dram mem{256 * 1024, banked_timing(4)};
  external_memory ext{mem};
  const crypto::aes prf{bytes(16, 0x4D)};
  edu::stream_edu e(ext, prf, {.parallel_keystream = parallel_keystream});
  bytes image(16 * 1024);
  fill_store_pattern(0x5A5A, image);
  e.install_image(0, image);
  e.reset_stats();

  golden_result out;
  bytes reads;
  const std::vector<golden_op> hand = {wr(0x100), rd(0x100), wr(0x204, 8), rd(0x240, 64)};
  const std::vector<std::vector<golden_op>> windows = {
      concat(hand, seeded_ops(0x5701, 12, 0, 16 * 1024, 0.4)),
      seeded_ops(0x5702, 12, 0, 16 * 1024, 0.3)};
  out.timing = run_golden_batches(e, windows, reads);
  out.counters = edu_line(e.stats());
  out.fnv = "read=" + hex64(fnv1a(reads)) + " dram=" + hex64(fnv1a(mem.raw()));
  return out;
}

/// Cycles each window's makespan runs past its last stamp, read from a
/// run_golden_batches timing line.
std::vector<long long> idle_tails(const std::string& timing) {
  std::vector<long long> tails;
  std::istringstream in(timing);
  std::string tok;
  std::string prev;
  while (in >> tok) {
    if (tok == "->" && in >> tok) tails.push_back(std::stoll(tok) - std::stoll(prev));
    prev = tok;
  }
  return tails;
}

TEST(StreamGoldenStamps, ParallelKeystream) {
  // Every pad comes from the address alone and overlaps the whole window,
  // so only the per-txn XOR stage reaches crypto_cycles.
  const golden_result got = stream_golden(true);
  EXPECT_EQ(got.timing,
            "55 81 101 135 197 221 245 261 287 323 355 363 409 479 495 519 -> 534 | "
            "71 95 111 145 215 239 271 279 321 329 345 423 -> 434");
  EXPECT_EQ(got.counters,
            "reads=16 writes=12 blocks=133 crypto=28 rmw=0 batches=2 batched=28");
  EXPECT_EQ(got.fnv, "read=9d61ba2bd9ee3a5c dram=493ad633edc6390d");
}

TEST(StreamGoldenStamps, SerialKeystream) {
  // Pad + XOR run on the gated lane, chained after each transaction's own
  // arrival, so the window retires with its last transaction. These pins
  // were taken on the batcher: the stamps match the older hand-rolled
  // window, whose makespans charged every pad after the whole bus window
  // and so ran 271 and 212 cycles past the last stamp (crypto=525).
  const golden_result got = stream_golden(false);
  EXPECT_EQ(got.timing,
            "70 96 115 152 214 240 264 282 302 344 376 392 424 498 516 538 -> 538 | "
            "90 114 132 166 234 258 292 308 340 356 374 444 -> 444");
  EXPECT_EQ(got.counters,
            "reads=16 writes=12 blocks=133 crypto=42 rmw=0 batches=2 batched=28");
  EXPECT_EQ(got.fnv, "read=9d61ba2bd9ee3a5c dram=493ad633edc6390d");
  EXPECT_EQ(idle_tails(got.timing), (std::vector<long long>{0, 0}));
}

// --- scalar datapaths: golden stamps ----------------------------------------

/// Gilmont's data region; every other engine ciphers it like the code.
constexpr addr_t scalar_data_base = 1u << 20;

/// The scalar script at \p base: sub-granule writes at unaligned addresses,
/// reads straddling two and three granules, an unaligned multi-granule
/// write, aligned single- and multi-line writes, spans crossing a DMA page
/// and a GI segment, an aligned segment write and a cover over 4 KiB.
/// Without \p writes only the reads remain (a read-only code region).
std::vector<golden_op> scalar_script(addr_t base, bool writes) {
  const std::vector<golden_op> script = {
      wr(base + 0x104, 4),       wr(base + 0x20B, 3),        rd(base + 0x11C, 8),
      rd(base + 0x1F8, 72),      wr(base + 0x31C, 40),       wr(base + 0x400),
      wr(base + 0x440, 64),      rd(base + 0x3F0, 0x60),     wr(base + 0xFF0),
      rd(base + 0xFE0, 0x40),    wr(base + 0x1000, 0x400),   wr(base + 0x13FE, 0x404),
      rd(base + 0x100, 0x40),    wr(base + 0x2001, 0x1100),  rd(base + 0x7F8, 0x810),
      rd(base + 0x1F00, 0x1300), rd(base + 0x440, 64)};
  std::vector<golden_op> ops;
  for (const golden_op& op : script)
    if (writes || op.op == txn_op::read) ops.push_back(op);
  return ops;
}

/// Install 16 KiB of code-like words (compressible, for Compress+OTP) at
/// 0 and 16 KiB of store pattern at scalar_data_base through \p e.
void install_golden_images(edu::edu& e) {
  bytes image(16 * 1024);
  static constexpr u32 words[] = {0xE5921000, 0xE5832004, 0x47702000, 0xB510F000};
  for (std::size_t off = 0; off < image.size(); off += 4)
    store_le32(&image[off], words[off / 4 % 4] ^ static_cast<u32>(off / 16 % 16));
  e.install_image(0, image);
  fill_store_pattern(scalar_data_base ^ 0x5A5A, image);
  e.install_image(scalar_data_base, image);
}

/// Run the scalar script over code (base 0) and data (scalar_data_base)
/// on \p e, after install_golden_images(); \p flush writes back what the
/// engine buffers before DRAM is hashed.
golden_result run_scalar_golden(edu::edu& e, bool code_writes, const dram& mem,
                                const std::function<void()>& flush) {
  install_golden_images(e);
  golden_result out;
  bytes reads;
  std::size_t i = 0;
  for (const golden_op& op :
       concat(scalar_script(0, code_writes), scalar_script(scalar_data_base, true))) {
    bytes buf(op.len);
    cycles c;
    if (op.op == txn_op::write) {
      fill_store_pattern(op.addr + 7 * i, buf);
      c = e.write(op.addr, buf);
    } else {
      c = e.read(op.addr, buf);
      reads.insert(reads.end(), buf.begin(), buf.end());
    }
    out.timing += (out.timing.empty() ? "" : " ") + std::to_string(c);
    ++i;
  }
  flush();
  out.counters = edu_line(e.stats());
  out.fnv = "read=" + hex64(fnv1a(reads)) + " dram=" + hex64(fnv1a(mem.raw()));
  return out;
}

/// The script on \p kind's engine, through secure_soc::engine().
golden_result scalar_golden(engine_kind kind) {
  edu::secure_soc soc(kind, edu::soc_config{});
  return run_scalar_golden(soc.engine(), kind != engine_kind::compress_otp, soc.memory(),
                           [&] { soc.flush(); });
}

/// The script on integrity_edu at mac_versioned, over 8 MiB of DRAM with
/// the default protected range and tag region.
golden_result integrity_scalar_golden() {
  dram mem{8u << 20};
  external_memory ext{mem};
  const crypto::aes prf{bytes(16, 0x3C)};
  edu::integrity_edu e(ext, prf, bytes(16, 0x6B), {});
  return run_scalar_golden(e, true, mem, [] {});
}

void expect_scalar_golden(const golden_result& got, const char* timing,
                          const char* counters, const char* fnv) {
  EXPECT_EQ(got.timing, timing);
  EXPECT_EQ(got.counters, counters);
  EXPECT_EQ(got.fnv, fnv);
}

// These pins were taken on the hand-rolled scalar paths, with the AEGIS
// aligned multi-line write and the Gilmont decipher charge already fixed;
// the granule map moves none of them. Every engine's reads return the
// same bytes but Compress+OTP's, whose script skips the code writes.

TEST(ScalarGoldenStamps, Plaintext) {
  expect_scalar_golden(scalar_golden(engine_kind::plaintext),
                       "48 20 20 36 28 26 34 42 54 34 302 276 62 1134 562 1262 62 48 20 "
                       "20 36 28 26 34 42 54 34 302 276 62 1134 562 1262 62",
                       "reads=16 writes=530 blocks=0 crypto=0 rmw=0 batches=0 batched=0",
                       "read=56e3ec1691e631ee dram=d035a6ed68e25c4b");
}

TEST(ScalarGoldenStamps, BestStp) {
  expect_scalar_golden(scalar_golden(engine_kind::best_stp),
                       "72 44 25 46 74 31 43 55 59 43 431 818 71 3336 821 1871 71 72 44 "
                       "25 46 74 31 43 55 59 43 431 818 71 3336 821 1871 71",
                       "reads=16 writes=4114 blocks=8942 crypto=13082 rmw=10 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=7d0a491b1a6d5298");
}

TEST(ScalarGoldenStamps, Ds5002fpByte) {
  expect_scalar_golden(scalar_golden(engine_kind::dallas_byte),
                       "49 21 21 37 29 27 35 43 55 35 303 277 63 1135 563 1263 63 49 21 "
                       "21 37 29 27 35 43 55 35 303 277 63 1135 563 1263 63",
                       "reads=16 writes=530 blocks=60518 crypto=546 rmw=0 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=7036a17f05e9fd6e");
}

TEST(ScalarGoldenStamps, Ds5240Des) {
  expect_scalar_golden(scalar_golden(engine_kind::dallas_des),
                       "100 72 54 180 252 90 162 234 118 162 2350 4716 190 19684 4690 "
                       "10990 190 100 72 54 180 252 90 162 234 118 162 2350 4716 190 "
                       "19684 4690 10990 190",
                       "reads=16 writes=4114 blocks=8942 crypto=143072 rmw=10 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=6e31c9e52dd05fa2");
}

TEST(ScalarGoldenStamps, AesEcb) {
  expect_scalar_golden(scalar_golden(engine_kind::block_ecb_aes),
                       "94 66 48 93 156 48 78 108 76 78 1006 2016 106 8254 1996 4606 106 "
                       "94 66 48 93 156 48 78 108 76 78 1006 2016 106 8254 1996 4606 106",
                       "reads=16 writes=2066 blocks=4490 crypto=49390 rmw=10 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=613cbeed36803b20");
}

TEST(ScalarGoldenStamps, AesCbcLine) {
  expect_scalar_golden(scalar_golden(engine_kind::block_cbc_aes),
                       "124 96 78 108 216 48 78 138 184 78 1006 2076 106 8284 2026 4606 "
                       "106 124 96 78 108 216 48 78 138 184 78 1006 2076 106 8284 2026 "
                       "4606 106",
                       "reads=16 writes=1042 blocks=6816 crypto=49984 rmw=12 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=1f3bdf3cf9d1fd73");
}

TEST(ScalarGoldenStamps, XomAes) {
  expect_scalar_golden(scalar_golden(engine_kind::xom_aes),
                       "100 72 41 56 102 41 51 61 69 51 379 722 79 2820 709 1579 79 100 "
                       "72 41 56 102 41 51 61 69 51 379 722 79 2820 709 1579 79",
                       "reads=16 writes=2066 blocks=4490 crypto=31686 rmw=10 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=613cbeed36803b20");
}

TEST(ScalarGoldenStamps, Aegis) {
  expect_scalar_golden(scalar_golden(engine_kind::aegis_cbc),
                       "137 109 82 123 327 68 136 164 330 138 2176 3790 110 15101 2790 "
                       "6344 110 137 109 82 123 327 68 136 164 330 138 2176 3790 110 "
                       "15101 2790 6344 110",
                       "reads=846 writes=1466 blocks=6816 crypto=73230 rmw=12 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=cda3cf827b197fc6");
}

TEST(ScalarGoldenStamps, Gilmont) {
  expect_scalar_golden(scalar_golden(engine_kind::gilmont_3des),
                       "182 154 78 79 202 77 89 80 206 78 449 946 106 3446 170 256 106 "
                       "48 20 20 36 28 26 34 42 54 34 302 276 62 1134 562 1262 62",
                       "reads=249 writes=1042 blocks=4576 crypto=28789 rmw=6 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=20208c3146f94ca4");
}

TEST(ScalarGoldenStamps, Gi) {
  expect_scalar_golden(scalar_golden(engine_kind::gi_3des_cbc),
                       "8983 7911 449 449 7911 8955 7911 898 17966 954 7462 24356 1521 "
                       "40380 6056 9070 1521 8983 7911 449 449 7911 8955 7911 898 17966 "
                       "954 7462 24356 1521 40380 6056 9070 1521",
                       "reads=16 writes=50 blocks=15738 crypto=509854 rmw=22 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=217c2da993ea9505");
}

TEST(ScalarGoldenStamps, StreamOtp) {
  expect_scalar_golden(scalar_golden(engine_kind::stream_otp),
                       "49 21 21 37 29 27 35 43 55 35 303 277 63 1135 563 1263 63 49 21 "
                       "21 37 29 27 35 43 55 35 303 277 63 1135 563 1263 63",
                       "reads=16 writes=530 blocks=3800 crypto=546 rmw=0 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=0fc7eb6a8ef1d6c1");
}

TEST(ScalarGoldenStamps, StreamSerial) {
  expect_scalar_golden(scalar_golden(engine_kind::stream_serial),
                       "63 35 36 55 46 42 52 62 70 52 380 356 80 1421 706 1580 80 63 35 "
                       "36 55 46 42 52 62 70 52 380 356 80 1421 706 1580 80",
                       "reads=16 writes=530 blocks=3800 crypto=11444 rmw=0 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=0fc7eb6a8ef1d6c1");
}

TEST(ScalarGoldenStamps, SecureDma) {
  expect_scalar_golden(scalar_golden(engine_kind::secure_dma),
                       "4684 2 2 2 2 2 2 2 4686 4 2 2 2 9368 4 6 2 4684 2 2 2 2 2 2 2 "
                       "4686 4 2 2 2 9368 4 6 2",
                       "reads=16 writes=530 blocks=8224 crypto=61648 rmw=0 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=64ea0d6d86a84e45");
}

TEST(ScalarGoldenStamps, CacheSideOtp) {
  expect_scalar_golden(scalar_golden(engine_kind::cacheside_otp),
                       "110 110 111 220 328 110 219 221 219 3 3381 3599 3 14934 6979 "
                       "1773 3 110 110 111 138 328 110 219 221 219 3 3135 3517 3 8994 "
                       "6297 1009 3",
                       "reads=16 writes=530 blocks=4868 crypto=546 rmw=0 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=92a8b09c18c9728d");
}

TEST(ScalarGoldenStamps, CompressOtp) {
  expect_scalar_golden(scalar_golden(engine_kind::compress_otp),
                       "86 87 116 86 86 1942 4464 86 49 21 21 37 29 27 35 43 55 35 303 "
                       "277 63 1135 563 1263 63",
                       "reads=16 writes=265 blocks=2366 crypto=1438 rmw=0 batches=0 "
                       "batched=0",
                       "read=7e2b0ef9f3d04ef8 dram=d10327c3bb1bc71e");
}

TEST(ScalarGoldenStamps, Keyslot) {
  expect_scalar_golden(scalar_golden(engine_kind::inline_keyslot),
                       "124 96 78 108 204 48 78 138 258 78 1006 1190 106 4308 2026 4606 "
                       "106 124 96 78 108 204 48 78 138 258 78 1006 1190 106 4308 2026 "
                       "4606 106",
                       "reads=16 writes=18 blocks=912 crypto=20064 rmw=20 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=aa488bfcbc64c951");
}

TEST(ScalarGoldenStamps, IntegrityMacVersioned) {
  expect_scalar_golden(integrity_scalar_golden(),
                       "271 271 102 111 605 144 288 266 542 130 4580 6722 102 26473 3370 "
                       "7446 192 271 271 102 111 605 144 288 266 542 130 4580 6722 102 "
                       "26473 3370 7446 192",
                       "reads=28 writes=1042 blocks=4544 crypto=69120 rmw=12 batches=0 "
                       "batched=0",
                       "read=56e3ec1691e631ee dram=88180f1c0ea90af6");
}

// --- GI and Compress+OTP batch paths: golden stamps --------------------------

/// Batch windows on \p kind's engine (secure_soc defaults) after
/// install_golden_images(): code reads straddling segments and groups,
/// repeats and a straddle past the code image's end (on GI, a read of a
/// segment never written, so one auth failure); data writes of 3, 4,
/// 32 and 1024 bytes between reads of what they wrote; code writes (GI
/// only: Compress+OTP's code is read-only); seeded code and data windows;
/// then, on GI, a window reading a segment whose ciphertext was flipped.
/// Pins every stamp, the edu_stats line (and GI's auth failures) and
/// FNV-1a of the bytes read and of DRAM after flush().
golden_result batch_golden(engine_kind kind) {
  edu::secure_soc soc(kind, edu::soc_config{});
  edu::edu& e = soc.engine();
  install_golden_images(e);
  e.reset_stats();
  const bool gi = kind == engine_kind::gi_3des_cbc;
  const addr_t d = scalar_data_base;
  std::vector<std::vector<golden_op>> windows = {
      {rd(0x3F0, 0x60), rd(0x400, 64), rd(0x11C, 8), rd(0x1F8, 72), rd(0xC00, 0x400),
       rd(0x2000), rd(0x2400), rd(0x2800), rd(0x2C00), rd(0x3000), rd(0x400),
       rd(0x3FF0, 32)},
      {wr(d + 0x104, 4), rd(d + 0x100, 64), wr(d + 0x20B, 3), rd(d + 0x200),
       wr(d + 0x400, 0x400), rd(d + 0x3F0, 0x60), wr(d + 0x800), rd(d + 0x7F8, 0x810),
       rd(0x440, 64)},
      seeded_ops(0xB6A1, 12, 0, 16 * 1024, gi ? 0.4 : 0.0),
      seeded_ops(0xB6A2, 12, d, 16 * 1024, 0.4)};
  if (gi)
    windows.push_back({wr(0x104, 4), rd(0x100, 64), wr(0x1000, 0x400), rd(0x13F0, 0x20),
                       wr(0x2001, 0x20), rd(0x1FF0, 0x40)});
  golden_result out;
  bytes reads;
  out.timing = run_golden_batches(e, windows, reads);
  if (gi) {
    soc.memory().raw()[0x3810] ^= 0x04;
    out.timing += " | " + run_golden_batches(e, {{rd(0x3800), rd(0x3820), rd(d)}}, reads);
  }
  soc.flush();
  out.counters = edu_line(e.stats());
  if (gi)
    out.counters += " auth_failures=" +
                    std::to_string(dynamic_cast<edu::gi_edu&>(e).auth_failures());
  out.fnv = "read=" + hex64(fnv1a(reads)) + " dram=" + hex64(fnv1a(soc.memory().raw()));
  return out;
}

TEST(BatchGoldenStamps, Gi) {
  const golden_result got = batch_golden(engine_kind::gi_3des_cbc);
  EXPECT_EQ(got.timing,
            "2740 2915 3090 3265 4484 5703 6922 8141 9360 10579 11798 14236 -> 14236 | "
            "8983 9432 17343 17792 25254 25977 34960 38276 39495 -> 39495 | 8983 10504 "
            "11723 13117 14336 22275 23796 23971 25190 26409 27628 35567 -> 35567 | "
            "1521 2740 2915 4134 13117 14610 22521 24042 25261 26480 26655 28049 -> "
            "28049 | 8983 9432 16922 18689 27672 29368 -> 29368 | 1521 1696 2915 -> "
            "2915");
  EXPECT_EQ(got.counters, "reads=42 writes=12 blocks=9546 crypto=138866 rmw=10 "
                          "batches=6 batched=54 auth_failures=2");
  EXPECT_EQ(got.fnv, "read=96f0671c707fd8fb dram=05a497377c96a4e3");
}

TEST(BatchGoldenStamps, CompressOtp) {
  const golden_result got = batch_golden(engine_kind::compress_otp);
  EXPECT_EQ(got.timing,
            "144 192 240 312 1108 1160 1184 1208 1260 1284 1336 1440 -> 1440 | 48 83 "
            "102 129 402 445 498 1061 1156 -> 1166 | 116 216 316 368 468 516 540 640 740 "
            "816 892 940 -> 969 | 79 133 183 245 322 357 390 445 507 569 647 717 -> 728");
  EXPECT_EQ(got.counters,
            "reads=39 writes=6 blocks=434 crypto=1713 rmw=0 batches=4 batched=45");
  EXPECT_EQ(got.fnv, "read=7723e8ea71be7331 dram=5fabadfbc0769a68");
}

// --- cache miss/evict pairs ride the batch path ------------------------------

TEST(CacheBatching, DirtyMissIssuesEvictFillPair) {
  dram d(1 << 20, banked_timing(2));
  external_memory em(d);
  cache_config cfg;
  cfg.size = 1024;
  cfg.line_size = 32;
  cfg.ways = 1; // direct-mapped: easy conflict construction
  cache c(cfg, em);

  bytes buf(4, 0xEE);
  (void)c.write(0x0, buf);  // dirty line in set 0
  (void)c.read(32 * 32, buf); // conflicting line, same set: evict + fill
  EXPECT_EQ(c.stats().writebacks, 1u);
  // The writeback really landed.
  bytes back(4);
  d.read_bytes(0, back);
  EXPECT_EQ(back[0], 0xEE);
}

TEST(CacheBatching, FlushDrainsAllDirtyLinesInOneBatch) {
  fixed_latency_port lower(1 << 16, 40);
  cache_config cfg;
  cfg.size = 1024;
  cfg.line_size = 32;
  cfg.ways = 2;
  cache c(cfg, lower);

  bytes buf(8, 0x77);
  for (addr_t a = 0; a < 8 * 32; a += 32) (void)c.write(a, buf);
  const cycles t = c.flush();
  EXPECT_EQ(c.stats().writebacks, 8u);
  EXPECT_EQ(t, 8 * 40u) << "default adapter: serial batch of 8 writebacks";
  EXPECT_EQ(lower.image_[5 * 32], 0x77);
}

} // namespace
} // namespace buscrypt
