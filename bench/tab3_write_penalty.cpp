// T3 — Section 2.2's five-step sub-block write penalty: "Read the block
// from memory, Decipher it, Modify the corresponding sequence into the
// block, Re-cipher it, Write it back in memory." Swept against store size,
// write fraction and cache write policy; the stream/OTP engine is the
// counterpoint (byte-granular, never pays it).

#include "bench_util.hpp"

namespace buscrypt {
namespace {

using edu::engine_kind;

sim::run_stats run_with_policy(engine_kind kind, const sim::workload& w,
                               const bytes& img, bool write_back, u64* rmw_out) {
  edu::soc_config cfg = bench::default_soc();
  cfg.l1.write_back = write_back;
  edu::secure_soc soc(kind, cfg);
  soc.load_image(0, img);
  soc.load_image(1 << 20, bytes(256 * 1024, 0));
  const auto rs = soc.run(w);
  if (rmw_out) *rmw_out = soc.engine().stats().rmw_ops;
  return rs;
}

} // namespace
} // namespace buscrypt

int main(int argc, char** argv) {
  using namespace buscrypt;
  const u64 seed = bench::seed_arg(argc, argv);
  const bytes img = bench::firmware_image(128 * 1024, seed ^ 81);

  bench::banner("Sub-block write penalty vs store size (write-through L1)",
                "Section 2.2 five-step write sequence");
  {
    table t({"store size", "XOM-AES overhead", "XOM RMW ops", "DS5240-DES overhead",
             "Stream-OTP overhead", "Stream RMW ops"});
    for (u8 size : {u8{1}, u8{2}, u8{4}, u8{8}}) {
      const auto w = sim::make_data_rw(30'000, 128 * 1024, 0.35, 0.5, size, size);
      u64 rmw_block = 0, rmw_stream = 0;
      const auto base = run_with_policy(engine_kind::plaintext, w, img, false, nullptr);
      const auto blk = run_with_policy(engine_kind::xom_aes, w, img, false, &rmw_block);
      const auto des = run_with_policy(engine_kind::dallas_des, w, img, false, nullptr);
      const auto str =
          run_with_policy(engine_kind::stream_otp, w, img, false, &rmw_stream);
      t.add_row({table::num(static_cast<unsigned long long>(size)) + " B",
                 table::pct(blk.slowdown_vs(base) - 1.0),
                 table::num(static_cast<unsigned long long>(rmw_block)),
                 table::pct(des.slowdown_vs(base) - 1.0),
                 table::pct(str.slowdown_vs(base) - 1.0),
                 table::num(static_cast<unsigned long long>(rmw_stream))});
    }
    std::fputs(t.str().c_str(), stdout);
  }

  bench::banner("Write fraction sweep (4-byte stores, write-through L1)",
                "Section 2.2: 'a write operation can have an even worst impact'");
  {
    table t({"write fraction", "XOM-AES overhead", "Stream-OTP overhead"});
    for (double wf : {0.0, 0.2, 0.4, 0.6, 0.8}) {
      const auto w = sim::make_data_rw(30'000, 128 * 1024, 0.35, wf, 4, 91);
      const auto base = run_with_policy(engine_kind::plaintext, w, img, false, nullptr);
      const auto blk = run_with_policy(engine_kind::xom_aes, w, img, false, nullptr);
      const auto str = run_with_policy(engine_kind::stream_otp, w, img, false, nullptr);
      t.add_row({table::num(wf, 1), table::pct(blk.slowdown_vs(base) - 1.0),
                 table::pct(str.slowdown_vs(base) - 1.0)});
    }
    std::fputs(t.str().c_str(), stdout);
  }

  bench::banner("Cache policy ablation: write-back absorbs the penalty",
                "Section 2.2 write penalty under each cache write policy");
  {
    table t({"policy", "XOM-AES overhead", "XOM RMW ops"});
    const auto w = sim::make_data_rw(30'000, 128 * 1024, 0.35, 0.5, 4, 92);
    for (bool wb : {false, true}) {
      u64 rmw = 0;
      const auto base = run_with_policy(engine_kind::plaintext, w, img, wb, nullptr);
      const auto blk = run_with_policy(engine_kind::xom_aes, w, img, wb, &rmw);
      t.add_row({wb ? "write-back/allocate" : "write-through/no-allocate",
                 table::pct(blk.slowdown_vs(base) - 1.0),
                 table::num(static_cast<unsigned long long>(rmw))});
    }
    std::fputs(t.str().c_str(), stdout);
  }

  std::printf(
      "\nShape check: the block engines pay read+decipher+re-cipher+write for\n"
      "every store smaller than a cipher block; the penalty shrinks as stores\n"
      "approach the block size, grows with write fraction, and disappears\n"
      "entirely under a write-back cache (full-line evictions) or a stream\n"
      "engine (byte-granular pad).\n");
  return 0;
}
