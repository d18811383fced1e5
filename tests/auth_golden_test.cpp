// Golden state of engine::memory_authenticator. Each case attaches one
// scheme over a 64 KiB window of the keyslot engine, installs a 16 KiB
// image at an unaligned base (head and tail read-modify-write), then runs
// a fixed mix of scalar reads and writes and submit()/drain() batches. The
// pins are every returned cycle count, completion stamp and makespan,
// every auth_stats counter (after the install and at the end), the
// on-chip and version-RAM sizes and FNV-1a fingerprints of the bytes read
// and of DRAM. The values were printed by the authenticator before its
// host datapath went heap-free, so a host-side change that moves a
// lower-port call, a cache decision or a simulated figure fails here.

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "engine/memory_authenticator.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <initializer_list>
#include <string>

namespace buscrypt::engine {
namespace {

constexpr std::size_t k_du = 32;
constexpr addr_t k_window = 64 * 1024;
constexpr addr_t k_tag_base = 192 * 1024;
constexpr addr_t k_image_base = 0x1010; // unaligned: head and tail RMW
constexpr std::size_t k_image_len = 16 * 1024;

struct golden_case {
  auth_mode mode = auth_mode::mac;
  unsigned arity = 2;     ///< hash_tree fan-out
  bool versioned = true;  ///< mac only
  unsigned cache = 16;    ///< tag_cache_entries
  std::size_t tag_bytes = 8;
};

std::string case_name(const golden_case& c) {
  std::string n = c.mode == auth_mode::hash_tree ? "tree_a" + std::to_string(c.arity)
                  : c.mode == auth_mode::mac     ? (c.versioned ? "mac_ver" : "mac_nover")
                                                 : "area";
  return n + "_c" + std::to_string(c.cache);
}

std::string hex64(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string kv_line(std::initializer_list<std::pair<const char*, u64>> kvs) {
  std::string o;
  for (const auto& [name, v] : kvs)
    o += (o.empty() ? "" : " ") + std::string(name) + "=" + std::to_string(v);
  return o;
}

std::string auth_line(const auth_stats& s) {
  return kv_line({{"verifies", s.verifies}, {"updates", s.updates}, {"faults", s.faults},
                  {"hits", s.tag_hits}, {"misses", s.tag_misses},
                  {"bus_reads", s.tag_bus_reads}, {"bus_writes", s.tag_bus_writes},
                  {"nodes", s.nodes_walked}, {"auth_cycles", s.auth_cycles}});
}

sim::dram_timing four_banks() {
  sim::dram_timing t;
  t.banks = 4;
  return t;
}

/// The keyslot engine over 256 KiB of 4-bank DRAM: one context over
/// [0, 128 KiB) (aes-ecb for area, aes-ctr otherwise), authenticated over
/// [0, 64 KiB) with its tags or tree nodes at 192 KiB.
struct golden_rig {
  sim::dram mem{256 * 1024, four_banks()};
  sim::external_memory ext{mem};
  keyslot_manager slots{backend_registry::builtin(), 4};
  bus_encryption_engine eng{ext, slots};
  bus_encryption_engine::context_id ctx;
  memory_authenticator* auth = nullptr;

  explicit golden_rig(const golden_case& c) {
    ctx = eng.create_context(
        {c.mode == auth_mode::area ? "aes-ecb" : "aes-ctr", bytes(16, 0x3D), k_du});
    eng.map_region(0, 128 * 1024, ctx);
    auth_config a;
    a.mode = c.mode;
    a.key = bytes(16, 0x6B);
    a.base = 0;
    a.limit = k_window;
    a.tag_bytes = c.mode == auth_mode::area ? 4 : c.tag_bytes;
    a.tag_base = k_tag_base;
    a.tag_cache_entries = c.cache;
    a.tree_arity = c.arity;
    a.versioned = c.versioned;
    auth = &eng.attach_auth(ctx, a);
  }

  /// Stored leaf digests of every unit the install covers (hash_tree).
  bytes install_leaves() const {
    const std::size_t tb = auth->config().tag_bytes;
    const u64 first = k_image_base / k_du;
    const u64 last = (k_image_base + k_image_len + k_du - 1) / k_du;
    bytes out(static_cast<std::size_t>(last - first) * tb);
    mem.read_bytes(auth->node_addr(0, first), out);
    return out;
  }
};

struct golden_op {
  sim::txn_op op = sim::txn_op::read;
  addr_t addr = 0;
  std::size_t len = k_du;
};

golden_op rd(addr_t a, std::size_t len = k_du) { return {sim::txn_op::read, a, len}; }
golden_op wr(addr_t a, std::size_t len = k_du) { return {sim::txn_op::write, a, len}; }

/// Seeded whole-unit traffic inside the window: 1-4 units per txn.
std::vector<golden_op> seeded_ops(u64 seed, std::size_t n, double write_p) {
  rng r(seed);
  std::vector<golden_op> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = k_du * r.between(1, 4);
    const addr_t a = k_du * r.below((k_window - len) / k_du + 1);
    ops.push_back(r.chance(write_p) ? wr(a, len) : rd(a, len));
  }
  return ops;
}

/// The scalar mix, in order.
const std::vector<golden_op> scalar_mix = {
    wr(0x2000), rd(0x2000),                         // in-window write, then read
    rd(0x2040), rd(0x2060),                         // two tags in one tag line
    wr(0x2104, 8), rd(0x2208, 12),                  // sub-unit write (RMW) and read
    rd(0x3000, 96), wr(0x3020, 64), rd(0x3000, 96), // multi-unit reads around a write
    rd(0x8000),                                     // only the attach seal covers it
    rd(0xFFE0, 64),                                 // straddles the window's end
    wr(0x1000), rd(0x1000)};

/// Two batches: a write then a read of one unit (the read sees the staged
/// state), reads sharing a tag line, a sub-unit write that detours through
/// the scalar path mid-window, then seeded traffic.
std::vector<std::vector<golden_op>> batch_mix() {
  std::vector<golden_op> first = {wr(0x100),    rd(0x100), rd(0x200),    rd(0x220),
                                  wr(0x304, 8), rd(0x300), rd(0x240, 64)};
  for (const golden_op& op : seeded_ops(0xA0E1, 12, 0.4)) first.push_back(op);
  return {first, seeded_ops(0xA0E2, 12, 0.3)};
}

struct golden_result {
  std::string install; ///< auth_stats right after the install
  std::string refused; ///< hash_tree: installed units whose stored leaf kept its value
  std::string scalar;  ///< cycles each scalar op returned
  std::string batches; ///< each batch: its stamps, then "-> makespan"
  std::string auth;    ///< auth_stats at the end
  std::string state;   ///< integrity faults, on-chip bytes, version RAM
  std::string fnv;     ///< FNV-1a of every byte read, and of DRAM
};

golden_result run_golden(const golden_case& c,
                         const std::function<void(golden_rig&)>& before_install = {}) {
  golden_rig rig(c);
  golden_result out;
  rng r(0x1A6E);
  const bytes image = r.random_bytes(k_image_len);
  if (before_install) before_install(rig);
  const bool tree = c.mode == auth_mode::hash_tree;
  const bytes leaves_before = tree ? rig.install_leaves() : bytes{};
  rig.eng.install(k_image_base, image);
  out.install = auth_line(rig.auth->stats());
  if (tree) {
    const bytes leaves_after = rig.install_leaves();
    const std::size_t tb = c.tag_bytes;
    for (std::size_t i = 0; i < leaves_after.size() / tb; ++i)
      if (std::equal(leaves_after.begin() + static_cast<std::ptrdiff_t>(i * tb),
                     leaves_after.begin() + static_cast<std::ptrdiff_t>((i + 1) * tb),
                     leaves_before.begin() + static_cast<std::ptrdiff_t>(i * tb)))
        out.refused += (out.refused.empty() ? "" : " ") +
                       std::to_string(k_image_base / k_du + i);
  }

  bytes reads;
  for (const golden_op& op : scalar_mix) {
    bytes buf(op.len);
    cycles t = 0;
    if (op.op == sim::txn_op::write) {
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<u8>(op.addr + 7 * i);
      t = rig.eng.write(op.addr, buf);
    } else {
      t = rig.eng.read(op.addr, buf);
      reads.insert(reads.end(), buf.begin(), buf.end());
    }
    out.scalar += (out.scalar.empty() ? "" : " ") + std::to_string(t);
  }

  for (const std::vector<golden_op>& ops : batch_mix()) {
    std::deque<bytes> bufs;
    std::vector<sim::mem_txn> batch;
    for (const golden_op& op : ops) {
      bytes& b = bufs.emplace_back(op.len);
      for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<u8>(op.addr + 3 * i + batch.size());
      batch.push_back({.op = op.op, .addr = op.addr, .data = b});
    }
    rig.eng.submit(batch);
    const cycles makespan = rig.eng.drain();
    if (!out.batches.empty()) out.batches += " | ";
    for (const sim::mem_txn& t : batch) {
      out.batches += std::to_string(t.complete_cycle) + " ";
      if (!t.is_write())
        reads.insert(reads.end(), t.data.begin(), t.data.end());
    }
    out.batches += "-> " + std::to_string(makespan);
  }

  bytes back(k_image_len);
  rig.eng.read_plain(k_image_base, back);
  reads.insert(reads.end(), back.begin(), back.end());

  out.auth = auth_line(rig.auth->stats());
  out.state = kv_line({{"integrity_faults", rig.eng.stats().integrity_faults},
                       {"onchip", rig.auth->onchip_bytes()},
                       {"version_ram", rig.auth->version_ram_bytes()}});
  out.fnv = "read=" + hex64(fnv1a(reads)) + " dram=" + hex64(fnv1a(rig.mem.raw()));
  return out;
}

/// One case and its pins, printed by the authenticator before the change.
struct golden_pin {
  golden_case c;
  const char* install;
  const char* scalar;
  const char* batches;
  const char* auth;
  const char* state;
  const char* fnv;
};

void expect_pins(const golden_result& got, const golden_pin& p) {
  EXPECT_EQ(got.install, p.install);
  EXPECT_EQ(got.scalar, p.scalar);
  EXPECT_EQ(got.batches, p.batches);
  EXPECT_EQ(got.auth, p.auth);
  EXPECT_EQ(got.state, p.state);
  EXPECT_EQ(got.fnv, p.fnv);
}

// hash_tree at arity 2 and 4, mac versioned and not, area on aes-ecb; each
// with the tag cache off, at 2 entries (constant eviction) and at 16.
const golden_pin all_pins[] = {
    {{auth_mode::hash_tree, 2, true, 0, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=6178 bus_reads=6178 "
     "bus_writes=5643 nodes=5665 auth_cycles=0",
     "1126 548 576 576 1646 548 1664 2094 1636 632 634 1126 604",
     "1126 1702 2306 2910 4640 5216 6378 7010 8172 11626 12844 14966 16064 18258 18890 "
     "21084 23178 24368 26032 -> 26032 | 2250 4472 5104 7310 8464 9618 11310 12556 "
     "16922 17554 19760 21452 -> 21452",
     "verifies=573 updates=538 faults=0 hits=0 misses=12759 bus_reads=12759 "
     "bus_writes=5918 nodes=12221 auth_cycles=23542",
     "integrity_faults=0 onchip=8 version_ram=0",
     "read=ff9c1d2703a4365f dram=3f54aeb2eca5d5d1"},
    {{auth_mode::hash_tree, 2, true, 2, 8},
     "verifies=2 updates=513 faults=0 hits=513 misses=5665 bus_reads=5665 "
     "bus_writes=5643 nodes=5665 auth_cycles=0",
     "1106 510 518 518 1568 510 1490 2054 1482 612 596 1106 566",
     "1106 1644 2190 2736 4388 4926 5972 6584 7650 11044 12166 14248 15326 17308 17920 "
     "19902 21956 23050 24598 -> 24598 | 2076 4124 4698 6864 7998 9132 10670 11800 "
     "16086 16680 18866 20404 -> 20404",
     "verifies=573 updates=538 faults=0 hits=1654 misses=10976 bus_reads=10976 "
     "bus_writes=5918 nodes=12092 auth_cycles=22606",
     "integrity_faults=0 onchip=24 version_ram=0",
     "read=ff9c1d2703a4365f dram=3f54aeb2eca5d5d1"},
    {{auth_mode::hash_tree, 2, true, 16, 8},
     "verifies=2 updates=513 faults=0 hits=1249 misses=4928 bus_reads=4928 "
     "bus_writes=5643 nodes=5664 auth_cycles=0",
     "1086 74 130 74 1176 300 620 1682 204 594 558 1126 74",
     "1114 1188 1516 1618 2832 2906 3234 3828 4742 7964 8772 10862 11920 12832 13444 "
     "14320 16306 17086 17980 -> 17980 | 1168 2420 3052 5078 6212 7326 8134 8708 12878 "
     "13452 15550 16302 -> 16302",
     "verifies=573 updates=538 faults=0 hits=1963 misses=6395 bus_reads=6395 "
     "bus_writes=5918 nodes=7820 auth_cycles=16540",
     "integrity_faults=0 onchip=136 version_ram=0",
     "read=ff9c1d2703a4365f dram=3f54aeb2eca5d5d1"},
    {{auth_mode::hash_tree, 4, true, 0, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=8753 bus_reads=8753 "
     "bus_writes=3078 nodes=3090 auth_cycles=0",
     "886 570 598 598 1456 570 1646 1670 1618 626 628 970 626",
     "970 1568 2194 2820 4416 5014 6220 6846 8080 10898 12048 13746 14632 16802 17428 "
     "19598 21268 22418 24092 -> 24092 | 2198 4424 5078 6972 7886 8772 10418 11624 "
     "15366 16020 17914 19560 -> 19560",
     "verifies=573 updates=538 faults=0 hits=0 misses=18314 bus_reads=18314 "
     "bus_writes=3228 nodes=6666 auth_cycles=18142",
     "integrity_faults=0 onchip=8 version_ram=0",
     "read=ff9c1d2703a4365f dram=c46d2556a9fe6365"},
    {{auth_mode::hash_tree, 4, true, 2, 8},
     "verifies=2 updates=513 faults=0 hits=514 misses=8239 bus_reads=8239 "
     "bus_writes=3078 nodes=3090 auth_cycles=0",
     "866 532 540 540 1378 532 1472 1630 1464 606 590 950 588",
     "950 1510 2078 2646 4164 4724 5814 6420 7558 10316 11370 13028 13894 15852 16458 "
     "18416 20046 21100 22658 -> 22658 | 2024 4076 4672 6526 7420 8286 9778 10868 "
     "14530 15146 17000 18492 -> 18492",
     "verifies=573 updates=538 faults=0 hits=1657 misses=16657 bus_reads=16657 "
     "bus_writes=3228 nodes=6666 auth_cycles=17206",
     "integrity_faults=0 onchip=24 version_ram=0",
     "read=ff9c1d2703a4365f dram=c46d2556a9fe6365"},
    {{auth_mode::hash_tree, 4, true, 16, 8},
     "verifies=2 updates=513 faults=0 hits=1937 misses=6813 bus_reads=6813 "
     "bus_writes=3078 nodes=3089 auth_cycles=0",
     "846 74 140 74 972 340 738 1210 186 616 504 970 74",
     "958 1032 1400 1502 2396 2470 2600 3188 4078 6804 7540 9178 10024 10930 11536 "
     "12264 13774 14510 15360 -> 15360 | 1152 2192 2788 4402 5296 6142 6906 7464 11066 "
     "11662 13396 14068 -> 14068",
     "verifies=573 updates=538 faults=0 hits=2690 misses=8394 bus_reads=8394 "
     "bus_writes=3228 nodes=4256 auth_cycles=12776",
     "integrity_faults=0 onchip=136 version_ram=0",
     "read=ff9c1d2703a4365f dram=c46d2556a9fe6365"},
    {{auth_mode::mac, 2, true, 0, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=2 bus_reads=2 bus_writes=513 "
     "nodes=0 auth_cycles=0",
     "122 108 108 108 202 108 316 170 288 164 194 150 108",
     "54 182 270 324 582 816 868 894 1002 1046 1218 1218 1288 1498 1524 1654 1654 1706 "
     "1792 -> 1792 | 364 468 494 494 494 494 594 646 646 814 814 944 -> 944",
     "verifies=573 updates=538 faults=0 hits=1 misses=572 bus_reads=551 bus_writes=538 "
     "nodes=0 auth_cycles=2158",
     "integrity_faults=0 onchip=2120 version_ram=2120",
     "read=ff9c1d2703a4365f dram=9268a007e6bad62e"},
    {{auth_mode::mac, 2, true, 2, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=2 bus_reads=2 bus_writes=513 "
     "nodes=0 auth_cycles=0",
     "122 108 74 74 202 108 248 170 186 164 194 150 108",
     "54 182 270 324 582 816 868 894 946 946 1066 1066 1136 1346 1372 1502 1502 1554 "
     "1640 -> 1640 | 364 468 494 494 494 494 594 646 646 814 814 944 -> 944",
     "verifies=573 updates=538 faults=0 hits=459 misses=114 bus_reads=94 "
     "bus_writes=538 nodes=0 auth_cycles=2158",
     "integrity_faults=0 onchip=2248 version_ram=2120",
     "read=ff9c1d2703a4365f dram=9268a007e6bad62e"},
    {{auth_mode::mac, 2, true, 16, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=2 bus_reads=2 bus_writes=513 "
     "nodes=0 auth_cycles=0",
     "122 108 74 74 202 108 248 170 186 164 194 150 74",
     "54 182 270 324 582 816 868 894 946 946 1066 1066 1136 1346 1372 1502 1502 1554 "
     "1640 -> 1640 | 364 468 494 494 494 494 594 646 646 752 752 882 -> 882",
     "verifies=573 updates=538 faults=0 hits=462 misses=111 bus_reads=91 "
     "bus_writes=538 nodes=0 auth_cycles=2158",
     "integrity_faults=0 onchip=3144 version_ram=2120",
     "read=ff9c1d2703a4365f dram=9268a007e6bad62e"},
    {{auth_mode::mac, 2, false, 0, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=2 bus_reads=2 bus_writes=513 "
     "nodes=0 auth_cycles=0",
     "122 108 108 108 202 108 316 170 288 164 194 150 108",
     "54 182 270 324 582 816 868 894 1002 1046 1218 1218 1288 1498 1524 1654 1654 1706 "
     "1792 -> 1792 | 364 468 494 494 494 494 594 646 646 814 814 944 -> 944",
     "verifies=573 updates=538 faults=0 hits=1 misses=572 bus_reads=551 bus_writes=538 "
     "nodes=0 auth_cycles=2158",
     "integrity_faults=0 onchip=0 version_ram=0",
     "read=ff9c1d2703a4365f dram=5e7004b171dc788b"},
    {{auth_mode::mac, 2, false, 2, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=2 bus_reads=2 bus_writes=513 "
     "nodes=0 auth_cycles=0",
     "122 108 74 74 202 108 248 170 186 164 194 150 108",
     "54 182 270 324 582 816 868 894 946 946 1066 1066 1136 1346 1372 1502 1502 1554 "
     "1640 -> 1640 | 364 468 494 494 494 494 594 646 646 814 814 944 -> 944",
     "verifies=573 updates=538 faults=0 hits=459 misses=114 bus_reads=94 "
     "bus_writes=538 nodes=0 auth_cycles=2158",
     "integrity_faults=0 onchip=128 version_ram=0",
     "read=ff9c1d2703a4365f dram=5e7004b171dc788b"},
    {{auth_mode::mac, 2, false, 16, 8},
     "verifies=2 updates=513 faults=0 hits=0 misses=2 bus_reads=2 bus_writes=513 "
     "nodes=0 auth_cycles=0",
     "122 108 74 74 202 108 248 170 186 164 194 150 74",
     "54 182 270 324 582 816 868 894 946 946 1066 1066 1136 1346 1372 1502 1502 1554 "
     "1640 -> 1640 | 364 468 494 494 494 494 594 646 646 752 752 882 -> 882",
     "verifies=573 updates=538 faults=0 hits=462 misses=111 bus_reads=91 "
     "bus_writes=538 nodes=0 auth_cycles=2158",
     "integrity_faults=0 onchip=1024 version_ram=0",
     "read=ff9c1d2703a4365f dram=5e7004b171dc788b"},
    {{auth_mode::area, 2, true, 0, 8},
     "verifies=2 updates=2561 faults=0 hits=0 misses=0 bus_reads=0 bus_writes=0 "
     "nodes=0 auth_cycles=0",
     "103 75 75 75 150 75 217 132 189 103 105 103 75",
     "54 129 178 227 377 818 916 965 1063 1063 1161 1161 1161 1357 1406 1602 1602 1700 "
     "1847 -> 1847 | 686 882 931 931 931 931 1078 1176 1176 1225 1225 1372 -> 1372",
     "verifies=573 updates=2586 faults=0 hits=0 misses=0 bus_reads=0 bus_writes=0 "
     "nodes=0 auth_cycles=3242",
     "integrity_faults=0 onchip=2120 version_ram=2120",
     "read=8c26e3db93217fcd dram=16326f0cf6ab056a"},
    {{auth_mode::area, 2, true, 2, 8},
     "verifies=2 updates=2561 faults=0 hits=0 misses=0 bus_reads=0 bus_writes=0 "
     "nodes=0 auth_cycles=0",
     "103 75 75 75 150 75 217 132 189 103 105 103 75",
     "54 129 178 227 377 818 916 965 1063 1063 1161 1161 1161 1357 1406 1602 1602 1700 "
     "1847 -> 1847 | 686 882 931 931 931 931 1078 1176 1176 1225 1225 1372 -> 1372",
     "verifies=573 updates=2586 faults=0 hits=0 misses=0 bus_reads=0 bus_writes=0 "
     "nodes=0 auth_cycles=3242",
     "integrity_faults=0 onchip=2120 version_ram=2120",
     "read=8c26e3db93217fcd dram=16326f0cf6ab056a"},
    {{auth_mode::area, 2, true, 16, 8},
     "verifies=2 updates=2561 faults=0 hits=0 misses=0 bus_reads=0 bus_writes=0 "
     "nodes=0 auth_cycles=0",
     "103 75 75 75 150 75 217 132 189 103 105 103 75",
     "54 129 178 227 377 818 916 965 1063 1063 1161 1161 1161 1357 1406 1602 1602 1700 "
     "1847 -> 1847 | 686 882 931 931 931 931 1078 1176 1176 1225 1225 1372 -> 1372",
     "verifies=573 updates=2586 faults=0 hits=0 misses=0 bus_reads=0 bus_writes=0 "
     "nodes=0 auth_cycles=3242",
     "integrity_faults=0 onchip=2120 version_ram=2120",
     "read=8c26e3db93217fcd dram=16326f0cf6ab056a"},
};

class AuthGoldenState : public ::testing::TestWithParam<golden_pin> {};

TEST_P(AuthGoldenState, PinsStampsCountersAndFingerprints) {
  const golden_result got = run_golden(GetParam().c);
  EXPECT_EQ(got.refused, "") << "an untampered tree refused an install update";
  expect_pins(got, GetParam());
}

INSTANTIATE_TEST_SUITE_P(SchemesAndCacheSizes, AuthGoldenState,
                         ::testing::ValuesIn(all_pins),
                         [](const auto& info) { return case_name(info.param.c); });

TEST(AuthGoldenFailStop, TamperedSiblingsRefuseTheirInstallUpdates) {
  // Before the install, flip a stored leaf (unit 301, the sibling of unit
  // 300) and a stored level-1 node (201, the sibling of the parent of
  // units 400 and 401). Pass A of those four units' updates cannot meet
  // the root, so each is refused and its stored leaf keeps its old value;
  // the readback of the image faults on the same four units.
  const golden_case c{auth_mode::hash_tree, 2, true, 16, 8};
  const golden_result got = run_golden(c, [](golden_rig& rig) {
    rig.mem.raw()[rig.auth->node_addr(0, 301)] ^= 0x01;
    rig.mem.raw()[rig.auth->node_addr(1, 201) + 3] ^= 0x80;
  });
  EXPECT_EQ(got.refused, "300 301 400 401");
  expect_pins(got,
              {c,
               "verifies=2 updates=513 faults=4 hits=1249 misses=4928 bus_reads=4928 "
               "bus_writes=5599 nodes=5664 auth_cycles=0",
               "1086 74 130 74 1156 300 620 1682 204 594 558 1126 74",
               "1114 1188 1516 1618 2832 2906 3234 3828 4742 7964 8772 10862 11920 12832 "
               "13444 14320 16306 17086 17980 -> 17980 | 1168 2420 3052 5078 6212 7326 "
               "8134 8708 12878 13452 15550 16302 -> 16302",
               "verifies=573 updates=538 faults=8 hits=1965 misses=6403 bus_reads=6403 "
               "bus_writes=5874 nodes=7830 auth_cycles=16540",
               "integrity_faults=8 onchip=136 version_ram=0",
               "read=9982ca5473c21c48 dram=38c6c70ff4b2d577"});
}

TEST(AuthGoldenFailStop, EqualChildrenAtOneLevelKeepTheirOwnDigests) {
  // With 1-byte node digests, two level-1 nodes of a 2048-leaf tree have
  // byte-equal children with near certainty. A node digest binds its
  // index, so verifying a unit under one of them right after a unit under
  // the other must recompute, not reuse, the first node's digest. The tag
  // cache is off, so every walk climbs to the root.
  const golden_case c{auth_mode::hash_tree, 2, true, 0, 1};
  golden_rig rig(c);
  const std::size_t parents = k_window / k_du / 2;
  bytes leaf(2 * parents);
  rig.mem.read_bytes(rig.auth->node_addr(0, 0), leaf);
  std::size_t q = 0, p = 0;
  for (std::size_t a = 0; a < parents && p == 0; ++a)
    for (std::size_t b = a + 1; b < parents && p == 0; ++b)
      if (leaf[2 * a] == leaf[2 * b] && leaf[2 * a + 1] == leaf[2 * b + 1]) {
        q = a;
        p = b;
      }
  ASSERT_NE(p, 0u) << "no two level-1 nodes share their children";
  bytes buf(k_du);
  for (const std::size_t parent : {q, p, q}) (void)rig.eng.read(2 * parent * k_du, buf);
  EXPECT_EQ(rig.eng.stats().integrity_faults, 0u) << "nodes " << q << " and " << p;
}

} // namespace
} // namespace buscrypt::engine
