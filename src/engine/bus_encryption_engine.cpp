#include "engine/bus_encryption_engine.hpp"

#include "sim/granule.hpp"
#include "sim/txn_batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace buscrypt::engine {

bus_encryption_engine::bus_encryption_engine(sim::memory_port& lower,
                                             keyslot_manager& slots)
    : lower_(&lower), slots_(&slots) {}

bus_encryption_engine::context_id bus_encryption_engine::create_context(keyslot_key k) {
  const cipher_backend& backend = slots_->registry().at(k.backend);
  if (!backend.key_len_ok(k.key.size()))
    throw std::invalid_argument("create_context: bad key length for backend " +
                                k.backend);
  // Granule check needs a keyed instance's view; all our backends expose a
  // fixed granule independent of the key, so probe with the key itself.
  const auto probe = backend.make_keyed(k.key);
  if (k.data_unit_size == 0 || k.data_unit_size % probe->granule() != 0)
    throw std::invalid_argument("create_context: data_unit_size not a multiple of the "
                                "cipher granule for backend " + k.backend);
  if (k.data_unit_size > backend.max_data_unit_size())
    throw std::invalid_argument("create_context: data_unit_size exceeds the IV-safe "
                                "bound for backend " + k.backend +
                                " (CTR keystream would repeat across units)");
  contexts_.push_back(std::move(k));
  context_live_.push_back(true);
  auths_.push_back(nullptr);
  return contexts_.size() - 1;
}

void bus_encryption_engine::destroy_context(context_id ctx) {
  if (ctx >= contexts_.size() || !context_live_[ctx])
    throw std::out_of_range("destroy_context: bad context id");
  context_live_[ctx] = false;
  std::erase_if(regions_, [ctx](const region& r) { return r.ctx == ctx; });
  auths_[ctx].reset();
  (void)slots_->evict(contexts_[ctx]); // best-effort: may be absent or busy
}

memory_authenticator& bus_encryption_engine::attach_auth(context_id ctx,
                                                         auth_config cfg) {
  if (ctx >= contexts_.size() || !context_live_[ctx])
    throw std::out_of_range("attach_auth: bad context id");
  if (auths_[ctx] != nullptr)
    throw std::invalid_argument("attach_auth: context already authenticated");
  const keyslot_key& k = contexts_[ctx];
  if (cfg.mode == auth_mode::area) {
    // AREA's check IS the block cipher's diffusion: a pad-precomputable
    // mode (CTR, stream) XORs bit-for-bit, so a flipped ciphertext bit
    // would flip exactly one plaintext bit and leave every nonce slice
    // intact. Reject those up front.
    const auto probe = slots_->registry().at(k.backend).make_keyed(k.key);
    if (probe->pad_precomputable())
      throw std::invalid_argument("attach_auth: AREA needs a diffusing block mode "
                                  "(got pad-precomputable backend " + k.backend + ")");
    if (cfg.tag_bytes >= probe->granule())
      throw std::invalid_argument("attach_auth: AREA redundancy must leave data "
                                  "capacity in every cipher block");
  }
  auths_[ctx] = std::make_unique<memory_authenticator>(*lower_, std::move(cfg),
                                                       k.data_unit_size);
  memory_authenticator& auth = *auths_[ctx];
  if (auth.mode() == auth_mode::area) {
    // Seal the window in place: reinterpret the current external bytes
    // through the context's normal decrypt, then re-store them in the
    // expanded AREA format at version 0. Offline, like install().
    const std::size_t du = k.data_unit_size;
    slot_lease lease = lease_slot(k, /*charge_time=*/false);
    bytes unit(du);
    for (addr_t a = auth.config().base; a < auth.config().limit; a += du) {
      (void)lower_->read(a, unit);
      (void)transform_units(*lease.kc, k, a, unit, /*encrypt=*/false, lease.fallback,
                            /*charge=*/false);
      (void)auth.area_encipher(*lease.kc, a, unit, unit, /*initial=*/true,
                               /*charge=*/false);
      (void)lower_->write(a, unit);
    }
  } else {
    auth.seal_from_memory();
  }
  return auth;
}

void bus_encryption_engine::note_integrity_fault(master_id m) {
  ++stats_.integrity_faults;
  ++domain_slot(m).integrity_faults;
}

void bus_encryption_engine::map_region(addr_t base, std::size_t len, context_id ctx) {
  if (ctx != no_context && (ctx >= contexts_.size() || !context_live_[ctx]))
    throw std::out_of_range("map_region: bad context id");
  if (ctx != no_context && base % contexts_[ctx].data_unit_size != 0)
    throw std::invalid_argument("map_region: base not data-unit aligned");
  regions_.push_back({base, len, ctx, any_master});
}

void bus_encryption_engine::bind_domain(master_id owner, addr_t base, std::size_t len,
                                        context_id ctx) {
  if (owner == any_master)
    throw std::invalid_argument("bind_domain: owner must be a concrete master "
                                "(use map_region for shared mappings)");
  map_region(base, len, ctx); // same validation + later-mapping-wins order
  regions_.back().owner = owner;
}

bus_encryption_engine::context_id
bus_encryption_engine::context_at(addr_t addr) const noexcept {
  // Later mappings win: scan newest-first.
  for (auto it = regions_.rbegin(); it != regions_.rend(); ++it)
    if (addr >= it->base && addr - it->base < it->len) return it->ctx;
  return no_context;
}

std::pair<bus_encryption_engine::context_id, std::size_t>
bus_encryption_engine::span_at(addr_t addr, std::size_t len) const noexcept {
  // The trusted, ownership-blind resolution (offline install/readback):
  // same span splitting, access check discarded.
  const access_span s = span_for(any_master, addr, len);
  return {s.ctx, s.len};
}

bus_encryption_engine::access_span bus_encryption_engine::span_for(
    master_id m, addr_t addr, std::size_t len) const noexcept {
  // Winning region = newest one containing addr (its index bounds which
  // later mappings can still override parts of the span). Ownership rides
  // the region, so domain boundaries and context boundaries split spans
  // identically.
  std::size_t win = regions_.size();
  for (std::size_t i = regions_.size(); i-- > 0;) {
    const region& r = regions_[i];
    if (addr >= r.base && addr - r.base < r.len) {
      win = i;
      break;
    }
  }
  addr_t end = addr + len;
  access_span out;
  if (win != regions_.size()) {
    const region& r = regions_[win];
    out.ctx = r.ctx;
    // Only the region's owner (or anyone, on a shared mapping) gets in.
    // any_master is never trusted here: owners are always concrete ids,
    // so a request forged with the sentinel can match no owned region —
    // the trusted ownership-blind view exists only behind span_at(),
    // which the untrusted datapaths never call with attacker-controlled
    // masters.
    out.allowed = r.owner == any_master || r.owner == m;
    end = std::min<addr_t>(end, r.base + r.len);
  }
  // Any newer region starting inside (addr, end) changes the context there.
  for (std::size_t j = (win == regions_.size() ? 0 : win + 1); j < regions_.size(); ++j)
    if (regions_[j].base > addr && regions_[j].base < end) end = regions_[j].base;
  out.len = static_cast<std::size_t>(end - addr);
  return out;
}

domain_stats bus_encryption_engine::domain(master_id m) const noexcept {
  for (const auto& [id, st] : domains_)
    if (id == m) return st;
  return {};
}

domain_stats& bus_encryption_engine::domain_slot(master_id m) {
  for (auto& [id, s] : domains_)
    if (id == m) return s;
  return domains_.emplace_back(m, domain_stats{}).second;
}

void bus_encryption_engine::note_domain(master_id m, bool is_write, std::size_t n,
                                        bool fault) {
  domain_stats& st = domain_slot(m);
  if (fault) {
    ++st.faults;
    ++stats_.domain_faults;
    return;
  }
  if (is_write) ++st.writes;
  else ++st.reads;
  st.bytes += n;
}

void bus_encryption_engine::note_firewall(master_id m) {
  ++domain_slot(m).firewall_denials;
  ++stats_.firewall_denials;
}

const keyslot_key& bus_encryption_engine::context_key(context_id ctx) const {
  if (ctx >= contexts_.size() || !context_live_[ctx])
    throw std::out_of_range("context_key: bad context id");
  return contexts_[ctx];
}

cycles bus_encryption_engine::transform_units(keyed_cipher& kc, const keyslot_key& k,
                                              addr_t unit_base, std::span<u8> buf,
                                              bool encrypt, bool fallback, bool charge) {
  // One bulk call: the backend sees the entire run (bitsliced DES, batched
  // ESSIV IVs, windowed CTR pads) instead of one unit at a time.
  const std::size_t du = k.data_unit_size;
  if (encrypt) kc.encrypt_units(unit_base / du, du, buf, buf);
  else kc.decrypt_units(unit_base / du, du, buf, buf);
  if (!charge) return 0;
  return charge_units(unit_cycles(kc, du, encrypt, fallback), buf.size() / du);
}

bus_encryption_engine::slot_lease
bus_encryption_engine::lease_slot(const keyslot_key& k, bool charge_time, bool hw_only) {
  slot_lease lease;
  // A stall is charged only for *demand* programs (cold or displacing);
  // prefetch refills expand their schedules in idle time, so a hit on a
  // prefetched slot stays free — that is the policy's whole payoff.
  const keyslot_stats& ks = slots_->stats();
  const u64 demand_before = ks.cold_programs + ks.reprograms;
  lease.guard.emplace(*slots_, k);
  if (lease.guard->valid()) {
    lease.kc = &lease.guard->keyed();
    if (charge_time && ks.cold_programs + ks.reprograms != demand_before) {
      lease.setup = slot_program_cycles;
      stats_.crypto_cycles += slot_program_cycles;
      ++stats_.reprogram_stalls;
      stats_.reprogram_stall_cycles += slot_program_cycles;
    }
    return lease;
  }
  if (hw_only) {
    lease.guard.reset(); // caller retires its window and retries
    return lease;
  }
  // Fall back to a software one-shot cipher when the pool is pinned out
  // (the blk-crypto-fallback analogue).
  lease.software = slots_->registry().at(k.backend).make_keyed(k.key);
  lease.kc = lease.software.get();
  lease.fallback = true;
  ++stats_.fallbacks;
  return lease;
}

cycles bus_encryption_engine::open_units(master_id m, context_id ctx,
                                         const slot_lease& lease, addr_t a0,
                                         std::span<u8> units, bool charge) {
  const keyslot_key& k = contexts_[ctx];
  const std::size_t du = k.data_unit_size;
  memory_authenticator* auth = auths_[ctx].get();
  cycles t = 0;
  // A unit whose check failed is counted against the issuing master and
  // its plaintext replaced by the bus-error fill (the CPU must never
  // consume it).
  auto fault_unit = [&](std::span<u8> plain) {
    std::fill(plain.begin(), plain.end(), fault_fill);
    note_integrity_fault(m);
    if (charge) t += fault_cycles;
  };

  if (auth != nullptr && auth->mode() == auth_mode::area) {
    // AREA unseals each unit in place of verify + decrypt: DRAM ciphertext
    // + sideband -> plaintext, nonce slices checked on the way.
    for (std::size_t off = 0; off < units.size(); off += du) {
      const addr_t ua = a0 + off;
      const std::span<u8> unit = units.subspan(off, du);
      if (!auth->covers(ua)) {
        t += transform_units(*lease.kc, k, ua, unit, /*encrypt=*/false, lease.fallback,
                             charge);
        continue;
      }
      const auto cr = auth->area_decipher(*lease.kc, ua, unit, unit, charge);
      if (charge) t += charge_units(cr.compute, 1);
      if (!cr.ok) fault_unit(unit);
    }
    return t;
  }

  // mac/hash_tree verify the *ciphertext* of each unit before the decrypt.
  std::vector<std::size_t> failed;
  for (std::size_t off = 0; auth != nullptr && off < units.size(); off += du) {
    if (!auth->covers(a0 + off)) continue;
    const auto cr = auth->verify_unit(a0 + off, units.subspan(off, du), charge);
    t += cr.bus + cr.compute;
    if (!cr.ok) failed.push_back(off);
  }
  t += transform_units(*lease.kc, k, a0, units, /*encrypt=*/false, lease.fallback,
                       charge);
  for (const std::size_t off : failed) fault_unit(units.subspan(off, du));
  return t;
}

cycles bus_encryption_engine::seal_units(master_id m, context_id ctx,
                                         const slot_lease& lease, addr_t a0,
                                         std::span<u8> units, bool charge) {
  const keyslot_key& k = contexts_[ctx];
  const std::size_t du = k.data_unit_size;
  memory_authenticator* auth = auths_[ctx].get();
  cycles t = 0;

  if (auth != nullptr && auth->mode() == auth_mode::area) {
    // AREA seals each unit in place of encrypt + tag store.
    for (std::size_t off = 0; off < units.size(); off += du) {
      const addr_t ua = a0 + off;
      const std::span<u8> unit = units.subspan(off, du);
      if (!auth->covers(ua)) {
        t += transform_units(*lease.kc, k, ua, unit, /*encrypt=*/true, lease.fallback,
                             charge);
        continue;
      }
      const cycles c =
          auth->area_encipher(*lease.kc, ua, unit, unit, /*initial=*/false, charge);
      if (charge) t += charge_units(c, 1);
    }
    return t;
  }

  t += transform_units(*lease.kc, k, a0, units, /*encrypt=*/true, lease.fallback, charge);
  for (std::size_t off = 0; auth != nullptr && off < units.size(); off += du) {
    if (!auth->covers(a0 + off)) continue;
    const auto cr = auth->update_unit(a0 + off, units.subspan(off, du), charge);
    t += cr.bus + cr.compute;
    if (!cr.ok) { // hash_tree caught a tampered stored path on the write walk
      note_integrity_fault(m);
      if (charge) t += fault_cycles;
    }
  }
  return t;
}

cycles bus_encryption_engine::read_covered(master_id m, context_id ctx, addr_t addr,
                                           std::span<u8> out, bool charge) {
  const sim::granule_cover c =
      sim::cover_of(addr, out.size(), contexts_[ctx].data_unit_size);
  const slot_lease lease = lease_slot(contexts_[ctx], charge);
  sim::stack_window window(c.len);
  const std::span<u8> cover = window.span();
  cycles t = lease.setup + lower_->read(c.base, cover);
  t += open_units(m, ctx, lease, c.base, cover, charge);
  std::ranges::copy(cover.subspan(c.head, out.size()), out.begin());
  return t;
}

cycles bus_encryption_engine::write_covered(master_id m, context_id ctx, addr_t addr,
                                            std::span<const u8> in, bool charge) {
  const std::size_t du = contexts_[ctx].data_unit_size;
  const sim::granule_cover c = sim::cover_of(addr, in.size(), du);
  const slot_lease lease = lease_slot(contexts_[ctx], charge);
  sim::stack_window window(c.len);
  const std::span<u8> cover = window.span();
  cycles t = lease.setup;
  // Partial edge units trigger the paper's five-step penalty: read,
  // decipher, modify, re-cipher, write back. Only those units are read.
  auto rmw_read = [&](addr_t ua) {
    const std::span<u8> unit = cover.subspan(static_cast<std::size_t>(ua - c.base), du);
    t += lower_->read(ua, unit);
    t += open_units(m, ctx, lease, ua, unit, charge);
    ++stats_.rmw_ops;
  };
  const bool head_partial = c.head != 0;
  if (head_partial) rmw_read(c.base);
  if (c.head + in.size() != c.len && (c.len > du || !head_partial))
    rmw_read(c.base + c.len - du);
  std::ranges::copy(in, cover.subspan(c.head).begin());
  t += seal_units(m, ctx, lease, c.base, cover, charge);
  return t + lower_->write(c.base, cover);
}

template <class Span>
cycles bus_encryption_engine::access(master_id m, addr_t addr, Span data) {
  constexpr bool is_write = std::is_const_v<typename Span::element_type>;
  ++(is_write ? stats_.writes : stats_.reads);
  cycles t = 0;
  // A denied span is blocked on-chip, with no lower traffic to probe: a
  // read gets the bus-error fill, never plaintext, and a write is dropped
  // whole, leaving the owning domain's ciphertext untouched.
  auto deny = [&](Span part) {
    if constexpr (!is_write) std::fill(part.begin(), part.end(), fault_fill);
    t += fault_cycles;
  };
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t lim = data.size() - off;
    if (fw_ != nullptr) {
      // Rule tables sit in front of the domain map: a span they deny is
      // never looked up in it.
      const sim::fw_span fd = fw_->check(m, addr + off, lim, is_write);
      if (!fd.allowed) {
        deny(data.subspan(off, fd.len));
        note_firewall(m);
        off += fd.len;
        continue;
      }
      lim = fd.len;
    }
    const access_span s = span_for(m, addr + off, lim);
    const Span part = data.subspan(off, s.len);
    if (!s.allowed) {
      deny(part);
      note_domain(m, is_write, s.len, /*fault=*/true);
    } else if (s.ctx == no_context) {
      if constexpr (is_write) t += lower_->write(addr + off, part);
      else t += lower_->read(addr + off, part);
      ++stats_.passthrough;
    } else {
      if constexpr (is_write) t += write_covered(m, s.ctx, addr + off, part, true);
      else t += read_covered(m, s.ctx, addr + off, part, true);
      note_domain(m, is_write, s.len, /*fault=*/false);
    }
    off += s.len;
  }
  return t;
}

cycles bus_encryption_engine::read(addr_t addr, std::span<u8> out) {
  return access(sim::cpu_master, addr, out);
}

cycles bus_encryption_engine::write(addr_t addr, std::span<const u8> in) {
  return access(sim::cpu_master, addr, in);
}

void bus_encryption_engine::submit(std::span<sim::mem_txn> batch) {
  ++stats_.batches;
  stats_.batched_txns += batch.size();

  // Slot programs, window makespans and scalar detours accrue on the
  // batcher's clock in issue order; stamps are relative to the last drain().
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  constexpr std::size_t no_lower = sim::txn_batcher::no_lower;

  // One hardware-only keyslot pin per context per window: the program cost
  // is paid at most once however many transactions share the context, and
  // a pinned-out pool retires the window instead of falling back.
  std::vector<std::pair<context_id, slot_lease>> live;
  auto pin = [&](context_id ctx) -> bool {
    for (auto& [id, lease] : live)
      if (id == ctx) return true;
    slot_lease lease = lease_slot(contexts_[ctx], /*charge_time=*/true, /*hw_only=*/true);
    if (lease.kc == nullptr) return false;
    b.advance(lease.setup);
    live.emplace_back(ctx, std::move(lease));
    return true;
  };
  // Lookup-only: a fresh lease here would bypass the contention protocol.
  auto lease_of = [&](context_id ctx) -> const slot_lease& {
    for (auto& [id, lease] : live)
      if (id == ctx) return lease;
    throw std::logic_error("bus_encryption_engine: context staged without a pin");
  };

  // The units whose check failed in the current window.
  struct fail_rec {
    std::span<u8> unit;
    master_id master;
  };
  std::vector<fail_rec> fails;
  // Ship the window and release its pins (the per-request release the
  // scalar path gets from its slot guards).
  auto retire = [&] {
    if (b.open()) {
      b.flush();
      // A failed check blocks the unit's plaintext: bus-error fill, charged
      // to the issuing master, after every decrypt so the fill survives.
      for (const fail_rec& f : fails) {
        std::fill(f.unit.begin(), f.unit.end(), fault_fill);
        note_integrity_fault(f.master);
      }
      fails.clear();
    }
    live.clear();
    area_snaps_.clear();
  };
  for (sim::mem_txn& txn : batch) {
    // The pipelined path handles whole data units inside one context; a
    // txn needing RMW, region splits, passthrough or a domain denial
    // detours via the scalar datapath (which counts its own reads/writes
    // and serves the fault fill under the txn's master).
    const addr_t addr = txn.addr;
    const std::size_t len = txn.data.size();
    bool eligible = true;
    if (fw_ != nullptr) {
      // peek, not check: the counting check happens exactly once per
      // served span — at staging below, or inside the scalar detour.
      const sim::fw_span fd = fw_->peek(txn.master, addr, len, txn.is_write());
      eligible = fd.allowed && fd.len == len;
    }
    const access_span sp = span_for(txn.master, addr, len);
    eligible = eligible && sp.allowed && sp.ctx != no_context && sp.len == len;
    if (eligible) {
      const std::size_t du = contexts_[sp.ctx].data_unit_size;
      // Hash-tree verification is a causally serial walk (each level needs
      // the one below), so tree-guarded units take the scalar datapath.
      const memory_authenticator* a = auths_[sp.ctx].get();
      eligible = sim::whole_granules(addr, len, du) &&
                 !(a != nullptr && a->mode() == auth_mode::hash_tree &&
                   addr < a->config().limit && addr + len > a->config().base);
    }
    // A pool miss first retires the window (releasing its pins), then
    // retries once; a context that still cannot get a slot detours to the
    // scalar datapath, which leases (and may fall back) exactly as scalar
    // issue would.
    if (eligible && !pin(sp.ctx)) {
      retire();
      eligible = pin(sp.ctx);
    }

    if (!eligible) {
      retire();
      // The scalar datapath serves the detour as the txn's master, so
      // domain checks, fault fills and per-domain stats stay correct.
      b.detour(txn, [&] {
        return txn.is_write() ? access(txn.master, addr, std::span<const u8>(txn.data))
                              : access(txn.master, addr, txn.data);
      });
      continue;
    }

    ++stats_.batch_native;
    if (txn.is_write()) ++stats_.writes;
    else ++stats_.reads;
    b.begin_txn(txn);

    // The data goes out first and tag traffic rides behind it; every job
    // gates on the data's arrival. Write ciphertext is staged in window
    // scratch below, before the window ships.
    const std::span<u8> data = // write ciphertext or read destination
        txn.is_write() ? std::span<u8>(b.scratch_copy(txn.data)) : txn.data;
    const std::size_t arrival = b.queue(txn.op, txn.master, addr, data);
    const slot_lease& lease = lease_of(sp.ctx);
    keyed_cipher& kc = *lease.kc;
    const keyslot_key& k = contexts_[sp.ctx];
    memory_authenticator* auth = auths_[sp.ctx].get();
    const auth_mode mode = auth != nullptr ? auth->mode() : auth_mode::none;
    const std::size_t du = k.data_unit_size;
    if (fw_ != nullptr) // the allowed span's one counting check (rule hit)
      (void)fw_->check(txn.master, addr, len, txn.is_write());
    note_domain(txn.master, txn.is_write(), len, /*fault=*/false);

    if (txn.is_write() && mode == auth_mode::area) {
      // Write data is in hand at staging: AREA seals occupy the cipher
      // core up front.
      b.add_pre(seal_units(txn.master, sp.ctx, lease, addr, data, /*charge=*/true));
    } else if (txn.is_write()) {
      // Block-mode encipher occupies the cipher core up front, pads
      // overlap the bus.
      const cycles c = transform_units(kc, k, addr, data, /*encrypt=*/true,
                                       /*fallback=*/false, /*charge=*/true);
      if (kc.pad_precomputable()) b.add_overlap(c);
      else b.add_pre(c);
      // New MAC tags load the MAC unit and ride the window behind the data.
      for (std::size_t off = 0; mode == auth_mode::mac && off < len; off += du) {
        const addr_t ua = addr + off;
        if (auth->covers(ua))
          b.add_mac_pre(auth->batch_stage_update(ua, data.subspan(off, du),
                                                 /*charge=*/true, b, txn.master));
      }
    } else if (mode == auth_mode::area) {
      // AREA unseal on the cipher core against staging-order snapshots in
      // area_snaps_: a later in-batch write of the unit must not bleed its
      // bumped version or new sideband into this read's check.
      const std::size_t snap_len = auth->area_snapshot_bytes(kc);
      const std::size_t first_snap = area_snaps_.size();
      cycles c = 0;
      for (std::size_t off = 0; off < len; off += du) {
        const addr_t ua = addr + off;
        if (auth->covers(ua)) {
          area_snaps_.resize(area_snaps_.size() + snap_len);
          auth->area_prepare(ua, std::span<u8>(area_snaps_).last(snap_len));
        }
        c += charge_units(auth->covers(ua) ? auth->area_unseal_cycles(kc)
                                           : unit_cycles(kc, du, false, false),
                          1);
      }
      b.add_gated(arrival, no_lower, c,
                  [this, &kc, &k, &fails, auth, addr, data, m = txn.master, first_snap,
                   snap_len] {
                    const std::size_t du = k.data_unit_size;
                    std::size_t snap = first_snap;
                    for (std::size_t off = 0; off < data.size(); off += du) {
                      const addr_t ua = addr + off;
                      std::span<u8> unit = data.subspan(off, du);
                      if (!auth->covers(ua)) {
                        (void)transform_units(kc, k, ua, unit, /*encrypt=*/false,
                                              /*fallback=*/false, /*charge=*/false);
                        continue;
                      }
                      const auto cr = auth->area_finish(
                          kc, ua, unit, unit,
                          std::span<const u8>(area_snaps_).subspan(snap, snap_len),
                          /*charge=*/true);
                      snap += snap_len;
                      if (!cr.ok) fails.push_back({unit, m});
                    }
                  });
    } else {
      // MAC verifies run on the MAC unit over the ciphertext as it
      // arrived, staged before the decrypt that consumes it, each gated
      // on its data and, on a tag-cache miss, its tag line.
      for (std::size_t off = 0; mode == auth_mode::mac && off < len; off += du) {
        const addr_t ua = addr + off;
        if (!auth->covers(ua)) continue;
        auto sv = auth->batch_prepare_verify(ua, b, txn.master);
        const std::size_t fetch = sv.fetch;
        const std::span<u8> ct = data.subspan(off, du);
        b.add_mac(arrival, fetch, auth->unit_mac_cycles(),
                  [&fails, auth, sv = std::move(sv), ct, m = txn.master] {
                    if (!auth->batch_finish_verify(sv, ct, /*charge=*/true).ok)
                      fails.push_back({ct, m});
                  });
      }
      // Pads need only the DUN and overlap the fetch (Fig. 2a); block-mode
      // decipher waits for its own data on the cipher core.
      const cycles c =
          charge_units(unit_cycles(kc, du, /*encrypt=*/false, false), len / du);
      auto decrypt = [this, &kc, &k, addr, data] {
        (void)transform_units(kc, k, addr, data, /*encrypt=*/false, /*fallback=*/false,
                              /*charge=*/false);
      };
      if (kc.pad_precomputable()) b.add_overlap(c, decrypt);
      else b.add_gated(arrival, no_lower, c, decrypt);
    }
  }
  retire();
  pending_txn_cycles_ += b.clock();
}

void bus_encryption_engine::install(addr_t base, std::span<const u8> plain) {
  std::size_t off = 0;
  while (off < plain.size()) {
    const auto [ctx, n] = span_at(base + off, plain.size() - off);
    if (ctx == no_context)
      (void)lower_->write(base + off, plain.subspan(off, n));
    else
      (void)write_covered(sim::cpu_master, ctx, base + off, plain.subspan(off, n),
                          /*charge=*/false);
    off += n;
  }
}

void bus_encryption_engine::read_plain(addr_t base, std::span<u8> out) {
  std::size_t off = 0;
  while (off < out.size()) {
    const auto [ctx, n] = span_at(base + off, out.size() - off);
    std::span<u8> part = out.subspan(off, n);
    if (ctx == no_context) (void)lower_->read(base + off, part);
    else (void)read_covered(sim::cpu_master, ctx, base + off, part, /*charge=*/false);
    off += n;
  }
}

} // namespace buscrypt::engine
