// Quickstart: protect an external memory with a bus-encryption engine,
// execute a workload, and watch what a bus probe sees.
//
//   $ ./quickstart
//
// Part 1 walks the classic fixed-function path in ~60 lines of user code:
//   1. assemble a secure SoC (CPU + cache + EDU + bus + DRAM),
//   2. install a firmware image through the engine's encrypt path,
//   3. run a workload and compare against the unprotected baseline.
// Part 2 does the same through the unified keyslot engine, sweeping three
// cipher backends (AES-CTR, 3DES-CBC, Trivium) over the same sim bus by
// changing one configuration string.

#include "attack/probe.hpp"
#include "common/hex.hpp"
#include "common/table.hpp"
#include "edu/engine_edu.hpp"
#include "edu/soc.hpp"
#include "sim/workload.hpp"

#include <algorithm>
#include <cstdio>

using namespace buscrypt;

int main() {
  // --- 1. a firmware image worth protecting -------------------------------
  rng r(1);
  bytes firmware = r.random_bytes(64 * 1024);
  const char* secret = "CONFIDENTIAL: license check at 0x4242, master key follows";
  for (std::size_t i = 0; i < 58; ++i) firmware[1024 + i] = static_cast<u8>(secret[i]);

  // --- 2. two SoCs: unprotected vs XOM-style pipelined AES EDU ------------
  edu::soc_config cfg;           // 8 KiB 4-way L1, 32 B lines, 8 MiB DRAM
  cfg.l1.size = 8 * 1024;
  cfg.mem_size = 8u << 20;

  edu::secure_soc plain(edu::engine_kind::plaintext, cfg);
  edu::secure_soc secure(edu::engine_kind::xom_aes, cfg);
  plain.load_image(0, firmware);
  secure.load_image(0, firmware); // installed through the AES engine

  // --- 3. probe both buses, run the same workload -------------------------
  sim::recording_probe probe_plain, probe_secure;
  plain.attach_probe(probe_plain);
  secure.attach_probe(probe_secure);

  const sim::workload w = sim::make_jumpy_code(50'000, 64 * 1024, 0.08, 7);
  const sim::run_stats rs_plain = plain.run(w);
  const sim::run_stats rs_secure = secure.run(w);

  // --- results -------------------------------------------------------------
  // The attacker reassembles an image from the recorded beats, then greps.
  const bytes needle(reinterpret_cast<const u8*>(secret),
                     reinterpret_cast<const u8*>(secret) + 20);
  auto bus_shows_secret = [&needle](const sim::recording_probe& p) {
    const bytes seen = attack::reconstruct_from_probe(p, 64 * 1024);
    return std::search(seen.begin(), seen.end(), needle.begin(), needle.end()) !=
           seen.end();
  };

  table t({"system", "CPI", "slowdown", "secret visible on bus?"});
  t.add_row({"no protection", table::num(rs_plain.cpi(), 2), "1.00x",
             bus_shows_secret(probe_plain) ? "YES - probe reads it" : "no"});
  t.add_row({"XOM-AES EDU", table::num(rs_secure.cpi(), 2),
             table::num(rs_secure.slowdown_vs(rs_plain), 2) + "x",
             bus_shows_secret(probe_secure) ? "YES" : "no - ciphertext only"});
  std::fputs(t.str().c_str(), stdout);

  std::printf("\nDRAM contents at the secret's address (attacker's view):\n");
  std::printf("-- unprotected --\n%s",
              hexdump(std::span<const u8>(plain.memory().raw()).subspan(1024, 64), 1024).c_str());
  std::printf("-- XOM-AES EDU --\n%s",
              hexdump(std::span<const u8>(secure.memory().raw()).subspan(1024, 64), 1024).c_str());

  std::printf("\nThe trusted side still computes on plaintext: read-back %s.\n",
              secure.read_back(0, firmware.size()) == firmware ? "matches" : "FAILED");

  // --- 4. the unified keyslot engine: three cipher backends, one slot pool -
  // Each 64 KiB region gets its own encryption context (backend + key +
  // data-unit size); the engine resolves contexts to keyslots per request.
  // Two hardware slots serve three keys, so the pool must evict and
  // reprogram — the counters at the bottom show it happening.
  sim::dram dram(8u << 20);
  sim::external_memory ext(dram);
  sim::recording_probe probe;
  ext.attach(probe);

  engine::keyslot_manager slots(engine::backend_registry::builtin(), 2);
  engine::bus_encryption_engine eng(ext, slots);

  struct tenant { const char* backend; std::size_t key_len; addr_t base; };
  const tenant tenants[] = {
      {"aes-ctr", 16, 0x00000},
      {"3des-cbc", 24, 0x40000},
      {"trivium-stream", 10, 0x80000},
  };

  std::printf("\n=== keyslot engine: 3 backends through a 2-slot pool ===\n");
  table kt({"backend", "region", "round-trip", "secret on bus?", "units", "crypto cycles"});
  for (const tenant& ten : tenants) {
    const auto ctx = eng.create_context({ten.backend, r.random_bytes(ten.key_len), 32});
    eng.map_region(ten.base, 64 * 1024, ctx);
    eng.install(ten.base, firmware); // offline encrypt path, per region

    // Timed traffic: the cache-line sized requests a real L1 would issue.
    const engine::engine_stats before = eng.stats();
    probe.clear();
    bytes line(32);
    for (addr_t a = 0; a < 16 * 1024; a += 32) (void)eng.read(ten.base + a, line);
    (void)eng.write(ten.base + 1024, bytes(48, 0xC0)); // partial-unit RMW too

    bytes back(firmware.size());
    eng.read_plain(ten.base, back);
    bytes patched = firmware;
    std::fill_n(patched.begin() + 1024, 48, static_cast<u8>(0xC0));

    const bytes seen = attack::reconstruct_from_probe(probe, (8u << 20));
    const bool leaked = std::search(seen.begin(), seen.end(), needle.begin(),
                                    needle.end()) != seen.end();
    kt.add_row({ten.backend, "64 KiB", back == patched ? "ok" : "FAILED",
                leaked ? "YES" : "no",
                table::num(static_cast<double>(eng.stats().units - before.units), 0),
                table::num(static_cast<double>(eng.stats().crypto_cycles -
                                               before.crypto_cycles), 0)});
  }
  std::fputs(kt.str().c_str(), stdout);

  const engine::keyslot_stats& ks = slots.stats();
  std::printf("\nslot pool: %u slots | %llu programs, %llu warm hits, %llu evictions, "
              "%llu denials | engine fallbacks: %llu\n",
              slots.num_slots(), (unsigned long long)ks.programs,
              (unsigned long long)ks.hits, (unsigned long long)ks.evictions,
              (unsigned long long)ks.denials,
              (unsigned long long)eng.stats().fallbacks);
  return 0;
}
