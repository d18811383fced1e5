// Beyond confidentiality: what the survey's conclusion points at next.
// Two demonstrations on one device:
//   1. ACTIVE attacks — spoof / splice / replay against external memory,
//      with and without the integrity engine ("thwart attacks based on
//      the modification of the fetched instructions");
//   2. what encryption can NEVER hide — the address bus. A probe profiles
//      the program's working set and loop structure through a perfect
//      cipher.
//
//   $ ./tamper_and_trace

#include "attack/tamper.hpp"
#include "attack/trace_analysis.hpp"
#include "common/hex.hpp"
#include "common/table.hpp"
#include "crypto/aes.hpp"
#include "edu/integrity_edu.hpp"
#include "edu/soc.hpp"
#include "sim/workload.hpp"

#include <cstdio>

using namespace buscrypt;

namespace {

void demo_tamper() {
  std::printf("PART 1 - modifying the fetched instructions\n"
              "The attacker owns the external RAM: they can overwrite lines\n"
              "(spoof), move valid lines between addresses (splice), or restore\n"
              "yesterday's contents (replay a stale firmware with a known bug).\n\n");

  table t({"engine configuration", "spoof", "splice", "replay (rollback)"});
  for (edu::integrity_level level :
       {edu::integrity_level::none, edu::integrity_level::mac,
        edu::integrity_level::mac_versioned}) {
    sim::dram chip(8u << 20);
    sim::external_memory ext(chip);
    rng r(2005);
    const crypto::aes prf(r.random_bytes(16));
    edu::integrity_edu_config cfg;
    cfg.level = level;
    edu::integrity_edu engine(ext, prf, r.random_bytes(16), cfg);

    const auto rep = attack::run_tamper_suite(engine, chip, 0x1000, 0x2000);
    auto cell = [](bool detected) { return detected ? "caught" : "LANDS"; };
    const char* name = level == edu::integrity_level::none ? "encryption only"
                       : level == edu::integrity_level::mac ? "+ per-line MAC"
                                                            : "+ MAC + versions";
    t.add_row({name, cell(rep.spoof_detected), cell(rep.splice_detected),
               cell(rep.replay_detected)});
  }
  std::fputs(t.str().c_str(), stdout);
  std::printf("\nEncryption alone accepts every modification (it just decrypts\n"
              "garbage — or yesterday's valid code). The MAC binds data to its\n"
              "address; the version counter binds it to *now*.\n\n");

  std::printf("The production keyslot engine offers the same guarantees per\n"
              "region — pick the scheme that fits the region's traffic:\n\n");
  table kt({"keyslot engine (aes-ecb context)", "spoof", "splice", "replay (rollback)"});
  for (engine::auth_mode mode :
       {engine::auth_mode::none, engine::auth_mode::mac, engine::auth_mode::area,
        engine::auth_mode::hash_tree}) {
    sim::dram chip(8u << 20);
    sim::external_memory ext(chip);
    rng r(2005);
    engine::keyslot_manager slots(engine::backend_registry::builtin(), 4);
    engine::bus_encryption_engine eng(ext, slots);
    const auto ctx = eng.create_context({"aes-ecb", r.random_bytes(16), 32});
    eng.map_region(0, 1u << 20, ctx);
    if (mode != engine::auth_mode::none) {
      engine::auth_config acfg;
      acfg.mode = mode;
      acfg.key = r.random_bytes(16);
      acfg.base = 0;
      acfg.limit = 64 * 1024;
      acfg.tag_base = 6u << 20;
      (void)eng.attach_auth(ctx, acfg);
    }
    const auto rep = attack::run_tamper_suite(eng, chip, 0x1000, 0x2000);
    auto cell = [](bool detected) { return detected ? "caught" : "LANDS"; };
    kt.add_row({std::string("auth_mode = ") + std::string(engine::auth_mode_name(mode)),
                cell(rep.spoof_detected), cell(rep.splice_detected),
                cell(rep.replay_detected)});
  }
  std::fputs(kt.str().c_str(), stdout);
  std::printf("\nmac pays tag traffic (cached), area pays memory width but zero\n"
              "beats, the hash tree pays a walk but shrinks on-chip state to one\n"
              "root. All three close the survey's open integrity problem.\n\n");
}

void demo_trace() {
  std::printf("PART 2 - the address bus never lies\n"
              "Same device, perfect data encryption. The probe only looks at\n"
              "WHERE the processor fetches, never at what.\n\n");

  edu::soc_config cfg;
  cfg.l1.size = 4 * 1024;
  cfg.mem_size = 4u << 20;
  edu::secure_soc soc(edu::engine_kind::stream_otp, cfg);
  rng r(7);
  soc.load_image(0, r.random_bytes(512 * 1024));

  sim::recording_probe probe;
  soc.attach_probe(probe);

  // The "secret" program: a 32 KiB decode loop plus a table region.
  sim::workload w;
  w.name = "decoder";
  for (int frame = 0; frame < 8; ++frame) {
    for (addr_t pc = 0; pc < 32 * 1024; pc += 4)
      w.accesses.push_back({pc, 4, sim::access_kind::fetch});
    for (int i = 0; i < 64; ++i)
      w.accesses.push_back({0x40000 + static_cast<addr_t>(i) * 32, 4,
                            sim::access_kind::load});
  }
  (void)soc.run(w);

  const auto profile = attack::profile_bus_trace(probe, cfg.l1.line_size, 2048);
  table t({"property leaked via addresses", "value"});
  t.add_row({"distinct lines touched (working set)",
             table::num(static_cast<unsigned long long>(profile.distinct_lines))});
  t.add_row({"loop period (lines)",
             table::num(static_cast<unsigned long long>(profile.loop_period))});
  t.add_row({"inferred loop size",
             table::num(static_cast<unsigned long long>(profile.loop_period *
                                                        cfg.l1.line_size)) +
                 " B (actual: 32,768 B + table)"});
  t.add_row({"write fraction", table::num(profile.write_fraction(), 3)});
  t.add_row({"hottest line",
             "0x" + to_hex(bytes{static_cast<u8>(profile.hottest_line >> 16),
                                 static_cast<u8>(profile.hottest_line >> 8),
                                 static_cast<u8>(profile.hottest_line)})});
  std::fputs(t.str().c_str(), stdout);

  std::printf("\nThe cipher hid every data bit, yet the attacker learned the\n"
              "program's shape: an 8-iteration loop over ~32 KiB with a table\n"
              "at a fixed address. Only the DS5002FP family even tried to\n"
              "scramble addresses (Fig. 6); every Fig. 2c engine leaves this\n"
              "channel open. Hiding it needs ORAM-class techniques — a decade\n"
              "past this survey's horizon.\n");
}

} // namespace

int main() {
  demo_tamper();
  demo_trace();
  return 0;
}
