// T2 — cipher-core table: measured software throughput (google-benchmark)
// alongside the modeled hardware figures the survey quotes (XOM's 14-cycle
// pipelined AES at 1/cycle, AEGIS's 300k gates, Gilmont's pipelined 3-DES).

#include "bench_util.hpp"
#include "crypto/aes.hpp"
#include "crypto/best_cipher.hpp"
#include "crypto/des.hpp"
#include "crypto/des_bitslice.hpp"
#include "crypto/lfsr.hpp"
#include "crypto/mac.hpp"
#include "crypto/modes.hpp"
#include "crypto/rc4.hpp"
#include "crypto/rsa.hpp"
#include "crypto/toy_cipher.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "sim/bus.hpp"
#include "sim/core_timing.hpp"
#include "sim/dram.hpp"

#include <benchmark/benchmark.h>

namespace buscrypt {
namespace {

// Base seed from --seed (bench::seed_arg); 0 reproduces the committed runs.
u64 g_seed = 0;

template <typename Cipher>
void block_throughput(benchmark::State& state, const Cipher& c) {
  rng r(g_seed ^ 1);
  bytes buf = r.random_bytes(64 * 1024);
  for (auto _ : state) {
    crypto::ecb_encrypt(c, buf, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(buf.size()));
}

void stream_throughput(benchmark::State& state, crypto::stream_cipher& c) {
  bytes buf(64 * 1024);
  for (auto _ : state) {
    c.keystream(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(buf.size()));
}

void print_hw_model_table() {
  using namespace sim;
  bench::banner("Modeled hardware cores (figures quoted by the survey)",
                "Section 3: XOM 14-cycle AES @ 1/cycle; AEGIS 300k gates;\n"
                "Gilmont pipelined 3-DES; DS5002FP combinational byte cipher");
  table t({"core", "block", "latency (cyc)", "initiation interval", "gates",
           "cyc per 32B line (parallel)", "cyc per 32B line (chained)"});
  for (const pipeline_model& m :
       {aes_pipelined(), aes_iterative(), des_iterative(), tdes_pipelined(),
        tdes_iterative(), best_combinational(), byte_combinational(),
        stream_generator()}) {
    const std::size_t blocks = m.blocks_for(32);
    t.add_row({std::string(m.name),
               table::num(static_cast<unsigned long long>(m.block_bytes)) + " B",
               table::num(static_cast<unsigned long long>(m.latency)),
               table::num(static_cast<unsigned long long>(m.interval)),
               table::num(static_cast<unsigned long long>(m.gates)),
               table::num(static_cast<unsigned long long>(m.time_parallel(blocks))),
               table::num(static_cast<unsigned long long>(m.time_chained(blocks)))});
  }
  std::fputs(t.str().c_str(), stdout);
}

// Time one full-buffer pass of `fn` repeatedly until the sample is long
// enough to trust (or the per-pass cost alone is), and return MB/s.
template <typename Fn>
double host_mbps(std::size_t bytes_per_pass, Fn&& fn) {
  fn(); // warm-up: fault in buffers, prime tables and branch predictors
  const bench::host_timer t;
  std::size_t passes = 0;
  do {
    fn();
    ++passes;
  } while (t.ms() < 150.0 && passes < 64);
  return static_cast<double>(bytes_per_pass * passes) / (t.ms() * 1e3);
}

// T2 left-half companion: the same DES/3DES core measured through each
// software tier — the retained per-bit FIPS reference, the scalar fused
// SP-table path, and the bitsliced wide path — so the table shows what the
// two-tier datapath actually buys on this host. AES rides along as the
// context row the survey's AES-based engines compare against (on the
// active kernel: AES-NI where the CPU has it).
void print_des_tier_table() {
  using namespace crypto;
  bench::banner("DES datapath tiers (host MB/s, 64 KiB ECB runs)",
                "reference = per-bit FIPS 46-3 oracle; table = scalar fused\n"
                "SP-boxes; bitsliced = wide lane groups (des_crypt_wide)");
  rng r(g_seed ^ 3);
  const bytes key8 = r.random_bytes(8);
  const bytes key24 = r.random_bytes(24);
  const des des_fast(key8);
  const des_reference des_ref(key8);
  const triple_des tdes_fast(key24);
  const triple_des_reference tdes_ref(key24);
  const aes aes128(r.random_bytes(16));

  const bytes src = r.random_bytes(64 * 1024);
  bytes dst(src.size());
  const std::size_t n = src.size();

  // One block at a time through the virtual single-block API — the tier an
  // engine hits when its run length stays under the bitslice crossover.
  const auto per_block = [&](const block_cipher& c) {
    return host_mbps(n, [&] {
      for (std::size_t off = 0; off < n; off += 8)
        c.encrypt_block(std::span(src).subspan(off, 8), std::span(dst).subspan(off, 8));
    });
  };
  const bitslice::des_pass des_enc{&des_fast.schedule(), false};
  // triple_des keeps its stage schedules private; rebuild the EDE pass
  // chain from the key bundle the same way it does internally.
  const std::span<const u8> kspan(key24);
  const des tk1(kspan.first(8));
  const des tk2(kspan.subspan(8, 8));
  const des tk3(kspan.subspan(16, 8));
  const std::array<bitslice::des_pass, 3> tdes_enc{
      {{&tk1.schedule(), false}, {&tk2.schedule(), true}, {&tk3.schedule(), false}}};

  table t({"core", "reference MB/s", "table MB/s", "bitsliced MB/s"});
  t.add_row({"DES", table::num(per_block(des_ref), 1), table::num(per_block(des_fast), 1),
             table::num(host_mbps(n,
                                  [&] {
                                    bitslice::des_crypt_wide({&des_enc, 1}, src, dst);
                                  }),
                        1)});
  t.add_row({"3DES", table::num(per_block(tdes_ref), 1),
             table::num(per_block(tdes_fast), 1),
             table::num(host_mbps(n,
                                  [&] {
                                    bitslice::des_crypt_wide(tdes_enc, src, dst);
                                  }),
                        1)});
  t.add_row({"AES-128", "-",
             table::num(host_mbps(n, [&] { aes128.encrypt_blocks(src, dst); }), 1), "-"});
  std::fputs(t.str().c_str(), stdout);
  std::printf("encrypt_blocks() picks table vs bitsliced per run length; see\n"
              "crypto::bitslice::k_min_wide_blocks for the crossover. The AES-128\n"
              "row runs the active AES kernel (per-kernel rows below).\n");
}

// Mean host nanoseconds per call of `fn`, sampled like host_mbps.
template <typename Fn>
double host_ns(Fn&& fn) {
  for (int i = 0; i < 1000; ++i) fn(); // warm-up
  const bench::host_timer t;
  std::size_t calls = 0;
  do {
    for (int i = 0; i < 1000; ++i) fn();
    calls += 1000;
  } while (t.ms() < 150.0);
  return t.ms() * 1e6 / static_cast<double>(calls);
}

// Host nanoseconds per unit of an offline hash-tree install: a 256 KiB
// image through the keyslot engine (aes-ctr, 32-byte units) into a fresh
// 512 KiB authenticated window, one verify-then-update tree walk per unit.
// The attach-time seal is not timed; the row is the fastest of 5 installs.
double hash_tree_install_unit_ns(const bytes& key, const bytes& image) {
  constexpr std::size_t unit = 32;
  double best_ms = 0;
  for (int rep = 0; rep < 5; ++rep) {
    sim::dram mem(2u << 20);
    sim::external_memory ext(mem);
    engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
    engine::bus_encryption_engine eng(ext, slots);
    const auto ctx = eng.create_context({"aes-ctr", key, unit});
    eng.map_region(0, 512 * 1024, ctx);
    engine::auth_config a;
    a.mode = engine::auth_mode::hash_tree;
    a.key = key;
    a.limit = 512 * 1024;
    a.tag_base = 1u << 20;
    (void)eng.attach_auth(ctx, a);
    const bench::host_timer t;
    eng.install(0, image);
    const double ms = t.ms();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms * 1e6 / static_cast<double>(image.size() / unit);
}

// The per-primitive host costs behind the authenticated-memory, keyslot
// and update simulations: SHA-256 bulk rate per kernel, one 48-byte HMAC
// (a 16-byte address/version header plus a 32-byte unit, the mac scheme's
// message) one-shot versus through a keyed object's cached midstates, the
// AES-128 bulk rate per kernel (every pad, IV and unit of the AES-cored
// engines), one AES-128 key expansion (every keyslot reprogram), one
// RSA-256 keygen (every update-lifetime episode's Fig. 1 key exchange) and
// one unit of a hash-tree install (the authenticator's host datapath end to
// end). CI asserts floors on these rows.
void print_primitive_table() {
  using namespace crypto;
  const sha256_kernels::compress_fn ni = sha256_kernels::compress_shani();
  const aes_kernels::kernel* aes_ni = aes_kernels::aes_ni();
  bench::banner("Hash and key-schedule primitives (host)",
                "Fig. 5 keyed hash / integrity MAC unit and Fig. 1 key exchange, host\n"
                "cost; keyed = ipad/opad midstates cached; SHA-256 kernel in use: " +
                    std::string(ni != nullptr ? "sha-ni" : "portable") +
                    "; AES kernel in use: " +
                    std::string(aes_ni != nullptr ? "aes-ni" : "portable"));
  rng r(g_seed ^ 4);
  const bytes src = r.random_bytes(64 * 1024);
  const bytes key = r.random_bytes(16);
  const bytes msg = r.random_bytes(48);
  const hmac_sha256_key keyed(key);
  volatile u8 sink = 0;

  const auto kernel_mbps = [&](sha256_kernels::compress_fn k) {
    sha256_kernels::state h{};
    return host_mbps(src.size(), [&] {
      k(h, src.data(), src.size() / 64);
      sink = sink + static_cast<u8>(h[0]);
    });
  };
  table t({"primitive", "unit", "value"});
  t.add_row({"SHA-256", "MB/s", table::num(host_mbps(src.size(), [&] {
                                   sink = sink + sha256::hash(src)[0];
                                 }),
                                 1)});
  t.add_row({"SHA-256 portable kernel", "MB/s",
             table::num(kernel_mbps(&sha256_kernels::compress_portable), 1)});
  t.add_row({"SHA-256 sha-ni kernel", "MB/s",
             ni != nullptr ? table::num(kernel_mbps(ni), 1) : std::string("-")});
  t.add_row({"HMAC-SHA256 48 B one-shot", "ns",
             table::num(host_ns([&] { sink = sink + hmac_sha256(key, msg)[0]; }), 1)});
  t.add_row({"HMAC-SHA256 48 B keyed", "ns",
             table::num(host_ns([&] { sink = sink + keyed.mac(msg)[0]; }), 1)});
  const auto aes_kernel_mbps = [&](const aes_kernels::kernel& k) {
    aes_kernels::schedule enc{};
    k.expand(key, enc);
    bytes dst(src.size());
    return host_mbps(src.size(), [&] {
      k.encrypt(enc, 10, src.data(), dst.data(), src.size() / 16);
      sink = sink + dst[0];
    });
  };
  t.add_row({"AES-128 portable kernel", "MB/s",
             table::num(aes_kernel_mbps(aes_kernels::portable()), 1)});
  t.add_row({"AES-128 aes-ni kernel", "MB/s",
             aes_ni != nullptr ? table::num(aes_kernel_mbps(*aes_ni), 1)
                               : std::string("-")});
  const auto expand = [&] {
    aes c(key);
    benchmark::DoNotOptimize(c);
  };
  t.add_row({"AES-128 key expansion", "ns", table::num(host_ns(expand), 1)});
  // How many prime candidates keygen tries depends on the seed, so the
  // row is the mean over a fixed seed list.
  constexpr u64 keygen_seeds = 32;
  const bench::host_timer keygen;
  for (u64 s = 1; s <= keygen_seeds; ++s) {
    rng kr(g_seed + s);
    sink = sink + static_cast<u8>(rsa_generate(kr, 256).pub.n.bit_length());
  }
  t.add_row({"RSA-256 keygen", "ms",
             table::num(keygen.ms() / static_cast<double>(keygen_seeds), 3)});
  t.add_row({"hash-tree install per unit", "ns",
             table::num(hash_tree_install_unit_ns(key, r.random_bytes(256 * 1024)), 1)});
  std::fputs(t.str().c_str(), stdout);
}

} // namespace
} // namespace buscrypt

int main(int argc, char** argv) {
  using namespace buscrypt;
  g_seed = bench::seed_arg(argc, argv);
  print_hw_model_table();
  print_des_tier_table();
  print_primitive_table();

  bench::banner("Software cipher throughput (functional models)",
                "T2 right half — google-benchmark");
  rng r(g_seed ^ 2);
  static const crypto::aes aes128(r.random_bytes(16));
  static const crypto::aes aes256(r.random_bytes(32));
  static const crypto::des des_c(r.random_bytes(8));
  static const crypto::triple_des tdes_c(r.random_bytes(24));
  static const crypto::best_cipher best_c(r.random_bytes(16));
  static crypto::rc4 rc4_c(r.random_bytes(16));
  static crypto::galois_lfsr lfsr_c(r.random_bytes(8), r.random_bytes(8));
  static crypto::trivium trivium_c(r.random_bytes(10), r.random_bytes(10));

  benchmark::RegisterBenchmark("ECB/AES-128",
                               [](benchmark::State& s) { block_throughput(s, aes128); });
  benchmark::RegisterBenchmark("ECB/AES-256",
                               [](benchmark::State& s) { block_throughput(s, aes256); });
  benchmark::RegisterBenchmark("ECB/DES",
                               [](benchmark::State& s) { block_throughput(s, des_c); });
  benchmark::RegisterBenchmark("ECB/3DES",
                               [](benchmark::State& s) { block_throughput(s, tdes_c); });
  benchmark::RegisterBenchmark("ECB/Best-STP",
                               [](benchmark::State& s) { block_throughput(s, best_c); });
  benchmark::RegisterBenchmark("stream/RC4",
                               [](benchmark::State& s) { stream_throughput(s, rc4_c); });
  benchmark::RegisterBenchmark("stream/LFSR-64",
                               [](benchmark::State& s) { stream_throughput(s, lfsr_c); });
  benchmark::RegisterBenchmark(
      "stream/Trivium", [](benchmark::State& s) { stream_throughput(s, trivium_c); });

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
