// The traced pass and the crypto timings. Spans are recorded from this
// file around each call into a layer's public functions; nothing inside
// the program is instrumented. Where the benchmark assembles a stack from
// public parts (the keyslot engine on the batched drive, the churn storm)
// two seams are timed as well: a memory_port between the engine and
// external memory, and a cipher_backend wrapper in the benchmark's own
// backend_registry.

#include "bench.hpp"

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/des.hpp"
#include "crypto/mac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "edu/engine_edu.hpp"
#include "edu/soc.hpp"
#include "engine/bus_encryption_engine.hpp"
#include "sim/bus.hpp"
#include "sim/dram.hpp"
#include "sim/fault_injector.hpp"
#include "sim/workload.hpp"
#include "update/lifetime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>

namespace perfbench {

namespace fleet = buscrypt::fleet;
namespace engine = buscrypt::engine;
namespace edu = buscrypt::edu;
namespace sim = buscrypt::sim;
namespace crypto = buscrypt::crypto;
namespace update = buscrypt::update;
using buscrypt::addr_t;
using buscrypt::bytes;
using buscrypt::rng;
using buscrypt::u8;

namespace {

using clock_type = std::chrono::steady_clock;

// --- spans -------------------------------------------------------------------

struct span_rec {
  const char* name;
  u64 start_ns;
  u64 end_ns;
  int parent;
  std::size_t cell;
};

/// Time spent behind one seam, summed per cell.
struct seam {
  u64 ns = 0;
  u64 calls = 0;
};

/// The traced pass runs on one thread, so one recorder serves it.
class recorder {
 public:
  recorder() : t0_(clock_type::now()) {}

  [[nodiscard]] u64 now() const {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - t0_)
            .count());
  }

  int open(const char* name, std::size_t cell) {
    spans_.push_back({name, now(), 0, stack_.empty() ? -1 : stack_.back(), cell});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<span_rec>& spans() const { return spans_; }
  [[nodiscard]] double ms(int span) const {
    const span_rec& s = spans_[static_cast<std::size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

 private:
  clock_type::time_point t0_;
  std::vector<span_rec> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on scope exit (throws too).
class scope {
 public:
  scope(recorder& rec, const char* name, std::size_t cell)
      : rec_(&rec), id_(rec.open(name, cell)) {}
  ~scope() { rec_->close(); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  recorder* rec_;
  int id_;
};

/// Times one call into the seam it guards.
class seam_timer {
 public:
  explicit seam_timer(seam& s) : s_(&s), t0_(clock_type::now()) {}
  ~seam_timer() {
    s_->ns += static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - t0_)
            .count());
    ++s_->calls;
  }
  seam_timer(const seam_timer&) = delete;
  seam_timer& operator=(const seam_timer&) = delete;

 private:
  seam* s_;
  clock_type::time_point t0_;
};

// --- the two seams -----------------------------------------------------------

/// A pass-through memory_port that times every call to the port below.
class timing_port final : public sim::memory_port {
 public:
  timing_port(sim::memory_port& lower, seam& s) : lower_(&lower), seam_(&s) {}

  [[nodiscard]] buscrypt::cycles read(addr_t addr, std::span<u8> out) override {
    const seam_timer t(*seam_);
    return lower_->read(addr, out);
  }
  [[nodiscard]] buscrypt::cycles write(addr_t addr, std::span<const u8> in) override {
    const seam_timer t(*seam_);
    return lower_->write(addr, in);
  }
  void submit(std::span<sim::mem_txn> batch) override {
    const seam_timer t(*seam_);
    lower_->submit(batch);
  }
  [[nodiscard]] buscrypt::cycles drain() override {
    const seam_timer t(*seam_);
    return lower_->drain();
  }

 private:
  sim::memory_port* lower_;
  seam* seam_;
};

/// A keyed_cipher that times every transform of the one it wraps.
class timing_keyed final : public engine::keyed_cipher {
 public:
  timing_keyed(std::unique_ptr<engine::keyed_cipher> inner, seam& s)
      : inner_(std::move(inner)), seam_(&s) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::size_t granule() const noexcept override { return inner_->granule(); }
  void encrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    const seam_timer t(*seam_);
    inner_->encrypt_unit(dun, in, out);
  }
  void decrypt_unit(u64 dun, std::span<const u8> in, std::span<u8> out) override {
    const seam_timer t(*seam_);
    inner_->decrypt_unit(dun, in, out);
  }
  void encrypt_units(u64 first, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    const seam_timer t(*seam_);
    inner_->encrypt_units(first, unit_len, in, out);
  }
  void decrypt_units(u64 first, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out) override {
    const seam_timer t(*seam_);
    inner_->decrypt_units(first, unit_len, in, out);
  }
  [[nodiscard]] buscrypt::cycles unit_cost(std::size_t n, bool enc) const noexcept override {
    return inner_->unit_cost(n, enc);
  }
  [[nodiscard]] bool pad_precomputable() const noexcept override {
    return inner_->pad_precomputable();
  }
  void generate_pads(u64 first, std::size_t unit_len, std::span<u8> out) override {
    const seam_timer t(*seam_);
    inner_->generate_pads(first, unit_len, out);
  }

 private:
  std::unique_ptr<engine::keyed_cipher> inner_;
  seam* seam_;
};

/// A cipher_backend that times key setup and wraps what it mints.
class timing_backend final : public engine::cipher_backend {
 public:
  timing_backend(const engine::cipher_backend& inner, seam& s) : inner_(&inner), seam_(&s) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool key_len_ok(std::size_t len) const noexcept override {
    return inner_->key_len_ok(len);
  }
  [[nodiscard]] std::unique_ptr<engine::keyed_cipher>
  make_keyed(std::span<const u8> key) const override {
    std::unique_ptr<engine::keyed_cipher> kc;
    {
      const seam_timer t(*seam_);
      kc = inner_->make_keyed(key);
    }
    return std::make_unique<timing_keyed>(std::move(kc), *seam_);
  }
  [[nodiscard]] std::size_t max_data_unit_size() const noexcept override {
    return inner_->max_data_unit_size();
  }
  [[nodiscard]] engine::backend_cost cost() const noexcept override { return inner_->cost(); }

 private:
  const engine::cipher_backend* inner_;
  seam* seam_;
};

/// Every builtin backend behind the timing wrapper.
engine::backend_registry timing_registry(seam& s) {
  const engine::backend_registry& builtin = engine::backend_registry::builtin();
  engine::backend_registry reg;
  for (const std::string_view name : builtin.names())
    reg.add(std::make_unique<timing_backend>(builtin.at(name), s));
  return reg;
}

/// Schedule-cache telemetry of the shared builtin block backends, where
/// the backend still exposes it (0 otherwise).
template <class B>
u64 schedule_count(const B& b, bool hits) {
  if constexpr (requires { b.schedule_hits(); b.schedule_expansions(); })
    return hits ? b.schedule_hits() : b.schedule_expansions();
  return 0;
}

u64 schedule_total(bool hits) {
  const engine::backend_registry& builtin = engine::backend_registry::builtin();
  u64 total = 0;
  for (const std::string_view name : builtin.names())
    if (const auto* b = dynamic_cast<const engine::block_backend*>(builtin.find(name)))
      total += schedule_count(*b, hits);
  return total;
}

// --- the fleet cell's inputs, rebuilt from its description ---------------------
// These mirror run_cell's SoC geometry, image and trace generators, so the
// traced pass drives the same inputs; the equality check against the
// untraced reference proves they agree.

edu::soc_config cell_soc(const fleet::fleet_cell& c) {
  edu::soc_config cfg;
  cfg.l1.size = 8 * 1024;
  cfg.l1.line_size = 32;
  cfg.l1.ways = 2;
  cfg.mem_size = 8u << 20;
  cfg.mem_timing.banks = 8;
  cfg.key_seed = c.seed;
  if (c.kind == edu::engine_kind::inline_keyslot) {
    cfg.keyslot_backend = c.backend;
    cfg.keyslot_auth = c.auth;
    cfg.keyslot_policy = c.policy;
    cfg.keyslot_slots = c.keyslot_slots;
  }
  return cfg;
}

bytes cell_image(const fleet::fleet_cell& c) {
  rng r(c.seed ^ 0xF1EE7'1A6EULL);
  bytes img(c.footprint);
  for (std::size_t off = 0; off + 4 <= img.size(); off += 4) {
    img[off] = static_cast<u8>(r.below(24) * 8);
    img[off + 1] = static_cast<u8>(0xE0 | r.below(8));
    img[off + 2] = r.next_byte();
    img[off + 3] = static_cast<u8>(r.below(64));
  }
  return img;
}

sim::workload cell_workload(const fleet::fleet_cell& c) {
  const std::size_t n = c.accesses;
  const std::size_t fp = c.footprint;
  sim::workload w;
  switch (c.load) {
    case fleet::traffic::mixed: {
      w = sim::make_jumpy_code(n - n / 4, fp, 0.15, c.seed ^ 0x7AB7);
      sim::workload s = sim::make_streaming(n / 4, fp, 4, c.seed ^ 0x7AB8);
      w.accesses.insert(w.accesses.end(), s.accesses.begin(), s.accesses.end());
      break;
    }
    case fleet::traffic::jumpy: w = sim::make_jumpy_code(n, fp, 0.15, c.seed ^ 0x7AB7); break;
    case fleet::traffic::streaming: w = sim::make_streaming(n, fp, 4, c.seed ^ 0x7AB8); break;
    case fleet::traffic::data_rw:
      w = sim::make_data_rw(n, fp, 0.4, 0.5, 4, c.seed ^ 0x7AB9);
      break;
    case fleet::traffic::pointer_chase:
      w = sim::make_pointer_chase(n, fp, c.seed ^ 0x7ABA);
      break;
    case fleet::traffic::sequential:
      w = sim::make_sequential_code(n, fp, 64, c.seed ^ 0x7ABB);
      break;
  }
  w.name = std::string(fleet::traffic_name(c.load));
  return w;
}

// --- counters ------------------------------------------------------------------

void add_engine(counters& k, engine::bus_encryption_engine& eng) {
  const engine::engine_stats& es = eng.stats();
  const engine::keyslot_stats& ks = eng.slots().stats();
  k["engine.keyslot.acquires"] += static_cast<double>(ks.acquires);
  k["engine.keyslot.hits"] += static_cast<double>(ks.hits);
  k["engine.keyslot.programs"] += static_cast<double>(ks.programs);
  k["engine.keyslot.denials"] += static_cast<double>(ks.denials);
  k["engine.keyslot.fallbacks"] += static_cast<double>(es.fallbacks);
  k["engine.keyslot.stall_cycles"] += static_cast<double>(es.reprogram_stall_cycles);
  k["_engine.batch_native"] += static_cast<double>(es.batch_native);
  k["_engine.batched_txns"] += static_cast<double>(es.batched_txns);
  // Context ids are never reused; a cell creates a few dozen at most.
  for (std::size_t ctx = 0; ctx < 4096; ++ctx) {
    const engine::memory_authenticator* a = eng.auth_of(ctx);
    if (a == nullptr) continue;
    const engine::auth_stats& s = a->stats();
    k["engine.auth.verifies"] += static_cast<double>(s.verifies);
    k["engine.auth.updates"] += static_cast<double>(s.updates);
    k["_auth.tag_hits"] += static_cast<double>(s.tag_hits);
    k["_auth.tag_misses"] += static_cast<double>(s.tag_misses);
    k["engine.auth.tag_bus_reads"] += static_cast<double>(s.tag_bus_reads);
    k["engine.auth.tag_bus_writes"] += static_cast<double>(s.tag_bus_writes);
    k["engine.auth.nodes_walked"] += static_cast<double>(s.nodes_walked);
    k["engine.auth.auth_cycles"] += static_cast<double>(s.auth_cycles);
    if (a->mode() != engine::auth_mode::area)
      k["crypto.hmac_unit_calls"] += static_cast<double>(s.verifies + s.updates);
  }
}

void add_edu(counters& k, const edu::edu_stats& s) {
  k["edu.cipher_blocks"] += static_cast<double>(s.cipher_blocks);
  k["edu.crypto_cycles"] += static_cast<double>(s.crypto_cycles);
  k["edu.rmw_ops"] += static_cast<double>(s.rmw_ops);
  k["_edu.batches"] += static_cast<double>(s.batches);
  k["_edu.batched_txns"] += static_cast<double>(s.batched_txns);
}

void add_cache(counters& k, const sim::cache_stats& s) {
  k["_cache.accesses"] += static_cast<double>(s.accesses);
  k["_cache.hits"] += static_cast<double>(s.hits);
}

double ratio(const counters& k, const char* num, const char* den) {
  const auto n = k.find(num);
  const auto d = k.find(den);
  if (n == k.end() || d == k.end() || d->second == 0.0) return 0.0;
  return n->second / d->second;
}

// --- traced cells ------------------------------------------------------------------

struct context {
  recorder rec;
  counters k;
  std::string seams_json;

  void add_seam(std::size_t cell, const char* name, const seam& s) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s{\"cell\": %zu, \"name\": \"%s\", \"ms\": %.6f, \"calls\": %llu}",
                  seams_json.empty() ? "" : ",\n    ", cell, name,
                  static_cast<double>(s.ns) / 1e6, static_cast<unsigned long long>(s.calls));
    seams_json += buf;
  }
};

/// The keyslot engine on the batched drive, assembled from public parts
/// exactly as the SoC wires it, with both seams in place.
fleet::cell_result keyslot_batched(context& cx, std::size_t id, const fleet::fleet_cell& c) {
  seam lower;
  seam backend;
  fleet::cell_result r;
  r.label = c.label();
  const edu::soc_config cfg = cell_soc(c);

  std::optional<sim::dram> dram;
  std::optional<sim::external_memory> ext;
  std::optional<timing_port> port;
  std::optional<engine::backend_registry> reg;
  std::optional<engine::keyslot_manager> slots;
  std::optional<engine::bus_encryption_engine> eng;
  {
    const scope s(cx.rec, "soc.construct", id);
    dram.emplace(cfg.mem_size, cfg.mem_timing);
    ext.emplace(*dram);
    port.emplace(*ext, lower);
    reg.emplace(timing_registry(backend));
    rng key_rng(cfg.key_seed);
    const bytes dev_key = key_rng.random_bytes(16);
    const std::string name = c.backend.empty() ? std::string(edu::keyslot_default_backend)
                                               : c.backend;
    slots.emplace(*reg, cfg.keyslot_slots != 0 ? cfg.keyslot_slots : 4u, c.policy);
    eng.emplace(*port, *slots);
    const auto ctx = eng->create_context({name, dev_key, cfg.l1.line_size});
    eng->map_region(0, static_cast<std::size_t>(-1), ctx);
    if (c.auth != engine::auth_mode::none) {
      engine::auth_config ac;
      ac.mode = c.auth;
      ac.base = 0;
      ac.limit = cfg.keyslot_auth_limit;
      ac.tag_base = cfg.keyslot_auth_tag_base;
      rng auth_rng(cfg.key_seed ^ 0xA07411ULL);
      ac.key = auth_rng.random_bytes(16);
      (void)eng->attach_auth(ctx, ac);
    }
  }
  bytes image;
  std::vector<sim::port_op> ops;
  {
    const scope s(cx.rec, "sim.workload", id);
    image = cell_image(c);
    ops = sim::to_port_ops(cell_workload(c), cfg.l1.line_size);
  }
  // Engine self time: the install and issue calls minus the seam time
  // spent below them.
  const u64 seams0 = lower.ns + backend.ns;
  int install_span = 0;
  int issue_span = 0;
  {
    const scope s(cx.rec, "soc.install", id);
    install_span = s.id();
    eng->install(0, image);
  }
  {
    const scope s(cx.rec, "soc.issue", id);
    issue_span = s.id();
    const sim::throughput_stats ts =
        sim::issue_batched(*eng, ops, cfg.l1.line_size, c.batch_txns);
    r.ops = ts.ops;
    r.bytes = ts.bytes;
    r.total_cycles = ts.total_cycles;
  }
  cx.k["engine.self_ms"] += cx.rec.ms(install_span) + cx.rec.ms(issue_span) -
                            static_cast<double>(lower.ns + backend.ns - seams0) / 1e6;

  const engine::engine_stats& es = eng->stats();
  r.edu.reads = es.reads;
  r.edu.writes = es.writes;
  r.edu.cipher_blocks = es.units;
  r.edu.crypto_cycles = es.crypto_cycles;
  r.edu.rmw_ops = es.rmw_ops;
  r.edu.batches = es.batches;
  r.edu.batched_txns = es.batched_txns;
  r.integrity_faults = es.integrity_faults;
  r.domain_faults = es.domain_faults;
  r.firewall_denials = es.firewall_denials;
  r.fallbacks = es.fallbacks;
  {
    const scope s(cx.rec, "fleet.fingerprint", id);
    r.dram_fnv = fleet::fnv1a(dram->raw());
  }
  add_edu(cx.k, r.edu);
  add_engine(cx.k, *eng);
  cx.k["sim.bus_beats"] += static_cast<double>(ext->beats());
  cx.k["sim.lower_ms"] += static_cast<double>(lower.ns) / 1e6;
  cx.k["crypto.backend_ms"] += static_cast<double>(backend.ns) / 1e6;
  cx.k["crypto.backend_calls"] += static_cast<double>(backend.calls);
  cx.add_seam(id, "sim.lower", lower);
  cx.add_seam(id, "crypto.backend", backend);
  return r;
}

/// Any SoC cell, through secure_soc's public calls.
fleet::cell_result soc_cell(context& cx, std::size_t id, const fleet::fleet_cell& c) {
  fleet::cell_result r;
  r.label = c.label();
  std::optional<edu::secure_soc> soc;
  {
    const scope s(cx.rec, "soc.construct", id);
    soc.emplace(c.kind, cell_soc(c));
  }
  bytes image;
  sim::workload w;
  std::vector<edu::master_desc> cast;
  std::optional<sim::topology> topo;
  {
    const scope s(cx.rec, "sim.workload", id);
    image = cell_image(c);
    if (c.drive == fleet::drive_mode::noc) {
      cast = fleet::noc_cast(c);
      topo.emplace(fleet::noc_topology(c));
    } else {
      w = cell_workload(c);
    }
  }
  {
    const scope s(cx.rec, "soc.install", id);
    soc->load_image(0, image);
  }
  {
    const scope s(cx.rec, "soc.issue", id);
    switch (c.drive) {
      case fleet::drive_mode::batched:
      case fleet::drive_mode::scalar: {
        const std::size_t batch = c.drive == fleet::drive_mode::batched ? c.batch_txns : 1;
        const sim::throughput_stats ts = soc->run_throughput(w, batch);
        r.ops = ts.ops;
        r.bytes = ts.bytes;
        r.total_cycles = ts.total_cycles;
        break;
      }
      case fleet::drive_mode::cpu: {
        const sim::run_stats rs = soc->run(w);
        r.ops = rs.instructions + rs.mem_ops;
        r.bytes = rs.bytes;
        r.total_cycles = rs.total_cycles;
        break;
      }
      case fleet::drive_mode::noc: {
        const edu::topology_run_stats ts = soc->run_topology(cast, *topo);
        r.ops = ts.noc.bus.txns;
        r.bytes = ts.noc.bus.bytes;
        r.total_cycles = ts.noc.bus.total_cycles;
        cx.k["sim.noc.rounds"] += static_cast<double>(ts.noc.bus.rounds);
        for (const sim::master_stats& m : ts.noc.bus.masters) {
          cx.k["sim.noc.wait_rounds"] += static_cast<double>(m.wait_rounds);
          cx.k["sim.noc.max_wait_streak"] = std::max(
              cx.k["sim.noc.max_wait_streak"], static_cast<double>(m.max_wait_streak));
        }
        break;
      }
      case fleet::drive_mode::lifetime: break;
    }
  }
  {
    const scope s(cx.rec, "soc.flush", id);
    soc->flush();
  }
  r.edu = soc->engine().stats();
  if (c.kind == edu::engine_kind::inline_keyslot) {
    engine::bus_encryption_engine& eng = static_cast<edu::engine_edu&>(soc->engine()).engine();
    const engine::engine_stats& es = eng.stats();
    r.integrity_faults = es.integrity_faults;
    r.domain_faults = es.domain_faults;
    r.firewall_denials = es.firewall_denials;
    r.fallbacks = es.fallbacks;
    add_engine(cx.k, eng);
  }
  {
    const scope s(cx.rec, "fleet.fingerprint", id);
    r.dram_fnv = fleet::fnv1a(soc->memory().raw());
  }
  add_edu(cx.k, r.edu);
  cx.k["sim.bus_beats"] += static_cast<double>(soc->external().beats());
  if (c.drive == fleet::drive_mode::cpu) {
    add_cache(cx.k, soc->l1().stats());
    if (sim::cache* l1i = soc->l1i()) add_cache(cx.k, l1i->stats());
  }
  return r;
}

/// A lifetime episode, assembled from public parts the way
/// update::run_lifetime assembles it (and configured as the fleet
/// configures it), with the timing port between the engine and the fault
/// injector and the timing backend under the slot pool.
fleet::cell_result lifetime_cell(context& cx, std::size_t id, const fleet::fleet_cell& c) {
  const std::string backend_name =
      c.backend.empty() ? (c.auth == engine::auth_mode::area ? "aes-ecb" : "aes-ctr")
                        : c.backend;
  const std::size_t s = 8u << 10; // lifetime_config's image and slot size
  const std::size_t chunk = 512;
  update::update_config ucfg;
  ucfg.slot_base_a = 0;
  ucfg.slot_base_b = s;
  ucfg.slot_bytes = s;
  ucfg.staging_base = 2 * s;
  ucfg.auth = c.auth;
  ucfg.tag_base_a = static_cast<addr_t>(4 * s);
  ucfg.tag_base_b = static_cast<addr_t>(6 * s);
  ucfg.tag_base_staging = static_cast<addr_t>(8 * s);
  ucfg.backend = backend_name;
  ucfg.data_unit = 32;
  ucfg.chunk_bytes = chunk;
  ucfg.device_key = update::backend_device_key(backend_name, c.seed);

  seam lower;
  seam backend;
  rng r(c.seed ^ 0x11FE71'3E5ULL);
  update::lifetime_result lr;
  std::optional<sim::dram> chip;
  std::optional<sim::external_memory> ext;
  std::optional<sim::fault_injector> fi;
  std::optional<timing_port> port;
  std::optional<engine::backend_registry> reg;
  std::optional<engine::keyslot_manager> slots;
  std::optional<engine::bus_encryption_engine> eng;
  {
    const scope sp(cx.rec, "soc.construct", id);
    chip.emplace(12 * s < (64u << 10) ? (64u << 10) : 12 * s);
    ext.emplace(*chip);
    fi.emplace(*ext);
    port.emplace(*fi, lower);
    reg.emplace(timing_registry(backend));
    slots.emplace(*reg, 4u);
    eng.emplace(*port, *slots);
  }
  crypto::rsa_keypair keys;
  {
    const scope sp(cx.rec, "crypto.rsa_generate", id);
    keys = crypto::rsa_generate(r, 256);
  }
  std::optional<update::update_agent> agent;
  bytes image_v1;
  bytes image_v2;
  {
    const scope sp(cx.rec, "update.provision", id);
    agent.emplace(*eng, *fi, keys.priv, ucfg);
    image_v1 = rng(c.seed ^ 0xF1EE7'1A6EULL).random_bytes(s);
    image_v2 = rng(c.seed ^ 0xF1EE7'1A6FULL).random_bytes(s);
    agent->provision(image_v1, 1);
  }
  {
    const scope sp(cx.rec, "update.traffic", id);
    bytes buf(chunk);
    for (int i = 0; i < 8; ++i) {
      const addr_t at =
          agent->slot_base(agent->active_slot()) + r.below(s / chunk) * chunk;
      lr.traffic_cycles += eng->read(at, buf);
    }
  }
  buscrypt::keymgmt::insecure_channel net;
  update::update_package up;
  {
    const scope sp(cx.rec, "update.package", id);
    up = update::make_update_package(image_v2, 2, keys.pub, net, r, chunk);
  }
  sim::fault_plan plan;
  plan.point = c.inject;
  plan.trigger = c.inject_trigger;
  plan.seed = c.seed ^ 0xB1A57ULL;
  plan.blast_base = ucfg.staging_base;
  plan.blast_len = s;
  plan.stalls =
      c.inject == sim::fault_point::bus_stall ? static_cast<unsigned>(c.inject_trigger) : 0;
  fi->arm(plan);
  update::update_report rep;
  {
    const scope sp(cx.rec, "update.apply", id);
    try {
      rep = agent->apply(up);
      lr.beats = fi->beats();
    } catch (const sim::power_cut&) {
      lr.cut = true;
      lr.beats = fi->beats();
      agent->power_cycle();
      fi->disarm();
    }
  }
  if (lr.cut) {
    const scope sp(cx.rec, "update.recover", id);
    rep = agent->recover(c.offer_package ? &up : nullptr);
  }
  fi->disarm();
  lr.retries = rep.retries;
  lr.update_cycles = rep.verify_cycles + rep.install_cycles;
  {
    const scope sp(cx.rec, "update.audit", id);
    const bytes now = agent->active_image();
    lr.committed_new = agent->version() == 2 && now == image_v2;
    lr.old_intact = agent->version() == 1 && now == image_v1;
    lr.torn = !lr.committed_new && !lr.old_intact;
    const u64 version = agent->version();
    const update::update_package stale =
        update::make_update_package(image_v1, 1, keys.pub, net, r, chunk);
    const update::update_report drep = agent->apply(stale);
    lr.downgrade_blocked = drep.status == update::update_status::downgrade_blocked &&
                           agent->version() == version && agent->active_image() == now;
  }
  fleet::cell_result res;
  res.label = c.label();
  {
    const scope sp(cx.rec, "fleet.fingerprint", id);
    res.dram_fnv = fleet::fnv1a(chip->raw());
  }
  res.ops = lr.beats;
  res.bytes = s;
  res.total_cycles = lr.traffic_cycles + lr.update_cycles;
  res.updates_committed = lr.committed_new ? 1 : 0;
  res.updates_rolled_back = !lr.committed_new && lr.old_intact ? 1 : 0;
  res.torn_images = lr.torn ? 1 : 0;
  res.downgrade_breaches = lr.downgrade_blocked ? 0 : 1;

  counters& k = cx.k;
  k["update.episodes"] += 1;
  k["update.committed"] += static_cast<double>(res.updates_committed);
  k["update.rolled_back"] += static_cast<double>(res.updates_rolled_back);
  k["update.cuts"] += lr.cut ? 1 : 0;
  k["update.retries"] += lr.retries;
  k["update.update_cycles"] += static_cast<double>(lr.update_cycles);
  k["update.traffic_cycles"] += static_cast<double>(lr.traffic_cycles);
  k["crypto.rsa_keygen_calls"] += 1;
  // Authenticators of contexts the agent rebuilt are gone; these are the
  // ones live at the end of the episode.
  add_engine(k, *eng);
  k["sim.bus_beats"] += static_cast<double>(ext->beats());
  k["sim.lower_ms"] += static_cast<double>(lower.ns) / 1e6;
  k["crypto.backend_ms"] += static_cast<double>(backend.ns) / 1e6;
  k["crypto.backend_calls"] += static_cast<double>(backend.calls);
  cx.add_seam(id, "sim.lower", lower);
  cx.add_seam(id, "crypto.backend", backend);
  return res;
}

void fnv_accumulate(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x00000100000001B3ULL;
  }
}

/// The churn storm, replayed from public parts (zipf_sampler,
/// keyslot_manager) through the timing backend.
engine::churn_result churn_cell(context& cx, std::size_t id, const engine::churn_config& cfg) {
  seam backend_seam;
  const engine::backend_registry reg = timing_registry(backend_seam);
  engine::churn_result r;
  {
    const scope s(cx.rec, "engine.churn", id);
    const engine::cipher_backend& backend = reg.at(cfg.backend);
    std::size_t key_len = 16;
    if (!backend.key_len_ok(key_len)) {
      for (std::size_t len = 1; len <= 64; ++len)
        if (backend.key_len_ok(len)) {
          key_len = len;
          break;
        }
    }
    engine::keyslot_manager mgr(reg, cfg.slots, cfg.policy);
    engine::zipf_sampler draws(cfg.contexts, cfg.zipf_s, cfg.seed ^ 0x21BF5EEDULL);
    r.label = cfg.label();
    r.draw_fnv = 0xCBF29CE484222325ULL;
    rng payload_rng(cfg.seed ^ 0xDA7AULL);
    const bytes unit = payload_rng.random_bytes(cfg.data_unit);
    bytes out(cfg.data_unit);
    std::deque<int> held;
    for (std::size_t op = 0; op < cfg.ops; ++op) {
      const std::size_t ctx = draws.next();
      fnv_accumulate(r.draw_fnv, static_cast<u64>(ctx));
      rng key_rng(cfg.seed ^ (0x6B5EEDULL + static_cast<u64>(ctx)));
      const engine::keyslot_key k{cfg.backend, key_rng.random_bytes(key_len), cfg.data_unit};
      const engine::keyslot_stats& ks = mgr.stats();
      const u64 demand_before = ks.cold_programs + ks.reprograms;
      const int slot = mgr.acquire(k);
      buscrypt::cycles cost = 0;
      if (slot == engine::keyslot_manager::no_slot) {
        ++r.fallbacks;
        const std::unique_ptr<engine::keyed_cipher> sw = backend.make_keyed(k.key);
        sw->encrypt_unit(static_cast<u64>(ctx), unit, out);
        cost = sw->unit_cost(cfg.data_unit, true) * cfg.fallback_penalty;
      } else {
        if (ks.cold_programs + ks.reprograms != demand_before) {
          cost += cfg.slot_program_cycles;
          r.stall_cycles += cfg.slot_program_cycles;
        }
        engine::keyed_cipher& kc = mgr.keyed(slot);
        kc.encrypt_unit(static_cast<u64>(ctx), unit, out);
        cost += kc.unit_cost(cfg.data_unit, true);
        held.push_back(slot);
        while (held.size() > cfg.in_flight) {
          mgr.release(held.front());
          held.pop_front();
        }
      }
      r.total_cycles += cost;
      r.bytes += cfg.data_unit;
      ++r.ops;
    }
    for (const int slot : held) mgr.release(slot);
    r.slots = mgr.stats();
  }
  counters& k = cx.k;
  k["engine.keyslot.acquires"] += static_cast<double>(r.slots.acquires);
  k["engine.keyslot.hits"] += static_cast<double>(r.slots.hits);
  k["engine.keyslot.programs"] += static_cast<double>(r.slots.programs);
  k["engine.keyslot.denials"] += static_cast<double>(r.slots.denials);
  k["engine.keyslot.fallbacks"] += static_cast<double>(r.fallbacks);
  k["engine.keyslot.stall_cycles"] += static_cast<double>(r.stall_cycles);
  k["crypto.backend_ms"] += static_cast<double>(backend_seam.ns) / 1e6;
  k["crypto.backend_calls"] += static_cast<double>(backend_seam.calls);
  cx.add_seam(id, "crypto.backend", backend_seam);
  return r;
}

/// Per-name self time: a span's duration minus its children's. Seam time
/// is not a span; it is reported on its own (sim.lower_ms,
/// crypto.backend_ms) and taken out of engine.self_ms.
counters self_times(const recorder& rec) {
  const std::vector<span_rec>& spans = rec.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
  for (const span_rec& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  counters out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::string spans_json(const recorder& rec, const std::vector<cell>& cells,
                       const std::string& seams, const counters& self) {
  std::string out = "{\n  \"spans\": [\n";
  char buf[320];
  const std::vector<span_rec>& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span_rec& s = spans[i];
    const cell& c = cells[s.cell];
    const std::string label = s.parent < 0 ? (c.storm ? c.churn.label() : c.soc.label()) : "";
    std::snprintf(buf, sizeof buf,
                  "    {\"id\": %zu, \"name\": \"%s\", \"cell\": %zu, \"parent\": %d, "
                  "\"start_us\": %.3f, \"end_us\": %.3f%s%s%s}%s\n",
                  i, s.name, s.cell, s.parent, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns) / 1e3, label.empty() ? "" : ", \"label\": \"",
                  label.c_str(), label.empty() ? "" : "\"", i + 1 == spans.size() ? "" : ",");
    out += buf;
  }
  out += "  ],\n  \"seams\": [\n    " + seams + "\n  ],\n  \"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : self) {
    std::snprintf(buf, sizeof buf, "%s\n    \"%s\": %.6f", first ? "" : ",", name.c_str(), ms);
    out += buf;
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

template <class F>
double median_ns_per_call(int reps, int calls, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock_type::now();
    for (int i = 0; i < calls; ++i) f();
    v.push_back(std::chrono::duration<double, std::nano>(clock_type::now() - t0).count() /
                calls);
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

} // namespace

traced_pass run_traced(const std::vector<cell>& cells) {
  context cx;
  traced_pass out;
  out.results.resize(cells.size());
  out.cell_ms.resize(cells.size());
  out.errors.resize(cells.size());
  const u64 sched_hits0 = schedule_total(true);
  const u64 sched_exp0 = schedule_total(false);
  const auto t0 = clock_type::now();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const cell& c = cells[i];
    int root_span = 0;
    {
      const scope root(cx.rec, "cell", i);
      root_span = root.id();
      try {
        if (c.storm)
          out.results[i].churn = churn_cell(cx, i, c.churn);
        else if (c.soc.drive == fleet::drive_mode::lifetime)
          out.results[i].soc = lifetime_cell(cx, i, c.soc);
        else if (c.soc.kind == edu::engine_kind::inline_keyslot &&
                 c.soc.drive == fleet::drive_mode::batched)
          out.results[i].soc = keyslot_batched(cx, i, c.soc);
        else
          out.results[i].soc = soc_cell(cx, i, c.soc);
      } catch (const std::exception& e) {
        out.errors[i] = std::string("traced cell threw: ") + e.what();
      }
    }
    out.cell_ms[i] = cx.rec.ms(root_span);
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();

  counters& k = cx.k;
  k["engine.backend.schedule_hits"] = static_cast<double>(schedule_total(true) - sched_hits0);
  k["engine.backend.schedule_expansions"] =
      static_cast<double>(schedule_total(false) - sched_exp0);
  k["engine.keyslot.warm_hit_rate"] =
      ratio(k, "engine.keyslot.hits", "engine.keyslot.acquires");
  const double tag_total = k["_auth.tag_hits"] + k["_auth.tag_misses"];
  k["engine.auth.tag_hit_rate"] = tag_total == 0.0 ? 0.0 : k["_auth.tag_hits"] / tag_total;
  k["engine.batch_native_ratio"] = ratio(k, "_engine.batch_native", "_engine.batched_txns");
  k["edu.txns_per_batch"] = ratio(k, "_edu.batched_txns", "_edu.batches");
  k["sim.cache.hit_rate"] = ratio(k, "_cache.hits", "_cache.accesses");

  const counters self = self_times(cx.rec);
  for (const auto& [name, ms] : self) {
    std::printf("  self %-24s %12.3f ms\n", name.c_str(), ms);
    if (name != "cell") k[name + "_ms"] = ms;
  }
  k["trace.spans"] = static_cast<double>(cx.rec.spans().size());
  out.spans_json = spans_json(cx.rec, cells, cx.seams_json, self);
  out.layers = std::move(k);
  return out;
}

counters crypto_micro(u64 seed) {
  rng r(seed ^ 0xC0FFEEULL);
  const bytes key = r.random_bytes(16);
  const bytes key24 = r.random_bytes(24);
  const bytes msg = r.random_bytes(48); // address || version || one 32 B unit
  const bytes block = r.random_bytes(4096);
  bytes out(4096);
  u64 sink = 0;
  counters k;

  k["crypto.hmac_unit_ns"] = median_ns_per_call(5, 2000, [&] {
    sink += crypto::hmac_sha256(key, msg)[0];
  });
  k["crypto.sha256_chunk_ns"] = median_ns_per_call(5, 200, [&] {
    sink += crypto::sha256::hash(block)[0];
  }) / static_cast<double>(block.size() / 64);
  k["crypto.aes_expand_ns"] = median_ns_per_call(5, 2000, [&] {
    const crypto::aes a(key);
    sink += reinterpret_cast<std::uintptr_t>(&a) & 1;
  });
  const std::unique_ptr<engine::keyed_cipher> ctr =
      engine::backend_registry::builtin().at("aes-ctr").make_keyed(key);
  k["crypto.aes_ctr_pad_mbps"] =
      static_cast<double>(out.size()) * 1e3 / median_ns_per_call(5, 200, [&] {
        ctr->generate_pads(sink & 0xFF, 32, out);
        sink += out[0];
      });
  const crypto::triple_des tdes(key24);
  k["crypto.des3_wide_mbps"] =
      static_cast<double>(block.size()) * 1e3 / median_ns_per_call(5, 20, [&] {
        tdes.encrypt_blocks(block, out);
        sink += out[0];
      });
  k["crypto.rsa_keygen_ms"] = median_ns_per_call(5, 1, [&] {
    const crypto::rsa_keypair kp = crypto::rsa_generate(r, 256);
    sink += kp.pub.n.bit_length();
  }) / 1e6;
  if (sink == 0x5EED) std::printf("(sink)\n");
  return k;
}

} // namespace perfbench
