#include "engine/memory_authenticator.hpp"

#include "common/bitops.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <tuple>

namespace buscrypt::engine {

namespace {

/// Node-cache key: stored tree levels stay tiny (< 2^8) and node indices
/// far below 2^56, so one u64 addresses the whole (level, index) space.
[[nodiscard]] constexpr u64 node_key(unsigned level, u64 index) noexcept {
  return (u64{level} << 56) | index;
}

/// An area_prepare snapshot's head: be64(version), then the sealed flag.
constexpr std::size_t k_snap_head = 9;

} // namespace

memory_authenticator::memory_authenticator(sim::memory_port& lower, auth_config cfg,
                                           std::size_t unit_bytes)
    : lower_(&lower),
      cfg_(std::move(cfg)),
      unit_(unit_bytes),
      mac_key_(cfg_.key),
      tag_cache_(cfg_.mode == auth_mode::mac ? cfg_.tag_cache_entries : 0),
      node_cache_(cfg_.mode == auth_mode::hash_tree ? cfg_.tag_cache_entries : 0) {
  if (cfg_.mode == auth_mode::none)
    throw std::invalid_argument("memory_authenticator: mode none has no state");
  if (cfg_.key.empty())
    throw std::invalid_argument("memory_authenticator: empty key");
  if (unit_ == 0 || cfg_.limit <= cfg_.base || cfg_.base % unit_ != 0 ||
      (cfg_.limit - cfg_.base) % unit_ != 0)
    throw std::invalid_argument("memory_authenticator: window must be a non-empty "
                                "data-unit-aligned range");
  if (cfg_.tag_bytes == 0 || cfg_.tag_bytes > 32)
    throw std::invalid_argument("memory_authenticator: tag_bytes must be 1..32");
  // A mac tag is read and written inside one 64-byte tag line.
  if (cfg_.mode == auth_mode::mac &&
      (k_tag_line % cfg_.tag_bytes != 0 || cfg_.tag_base % cfg_.tag_bytes != 0))
    throw std::invalid_argument("memory_authenticator: mac tag_bytes must divide the "
                                "64-byte tag line and align tag_base");
  if (!cfg_.versioned && cfg_.mode != auth_mode::mac)
    throw std::invalid_argument("memory_authenticator: only mac can run unversioned");

  const u64 lines = (cfg_.limit - cfg_.base) / unit_;
  if (cfg_.mode == auth_mode::hash_tree) {
    if (cfg_.tree_arity < 2 || cfg_.tree_arity > 8)
      throw std::invalid_argument("memory_authenticator: tree_arity must be 2..8");
    // Stored levels, leaves first; the root (one node) stays on-chip.
    for (u64 n = lines; n > 1; n = (n + cfg_.tree_arity - 1) / cfg_.tree_arity)
      level_sizes_.push_back(n);
    addr_t at = cfg_.tag_base;
    for (const u64 n : level_sizes_) {
      level_base_.push_back(at);
      at += n * cfg_.tag_bytes;
    }
    const unsigned levels = tree_levels();
    walk_children_.resize(levels * cfg_.tree_arity * cfg_.tag_bytes);
    walk_install_.reserve(1 + levels * cfg_.tree_arity);
    memo_.resize(levels + 1);
  }
  if (cfg_.mode != auth_mode::area) {
    const addr_t tag_end = cfg_.tag_base + tag_memory_bytes();
    if (cfg_.tag_base < cfg_.limit && tag_end > cfg_.base)
      throw std::invalid_argument("memory_authenticator: tag region overlaps the "
                                  "authenticated window");
  }
}

u64 memory_authenticator::version_of(addr_t unit_addr) const noexcept {
  const auto it = versions_.find(unit_addr);
  return it == versions_.end() ? 0 : it->second;
}

void memory_authenticator::note(check_result& r, bool charge) noexcept {
  if (!charge) {
    r.bus = 0;
    r.compute = 0;
    return;
  }
  stats_.auth_cycles += r.compute;
}

memory_authenticator::digest
memory_authenticator::keyed_digest(std::span<const u8> head,
                                   std::span<const u8> body) const noexcept {
  digest d = mac_key_.mac(head, body);
  std::fill(d.begin() + static_cast<std::ptrdiff_t>(cfg_.tag_bytes), d.end(), u8{0});
  return d;
}

bool memory_authenticator::same(const digest& a, const digest& b) const noexcept {
  return std::memcmp(a.data(), b.data(), cfg_.tag_bytes) == 0;
}

// --- mac -----------------------------------------------------------------------

addr_t memory_authenticator::tag_addr(addr_t unit_addr) const noexcept {
  return cfg_.tag_base + unit_index(unit_addr) * cfg_.tag_bytes;
}

memory_authenticator::digest
memory_authenticator::unit_tag(addr_t unit_addr, u64 version,
                               std::span<const u8> ct) const noexcept {
  // Address in the MAC defeats splicing, the version defeats replay, the
  // ciphertext itself defeats spoofing.
  u8 head[16];
  store_be64(head, unit_addr);
  store_be64(head + 8, version);
  return keyed_digest(head, ct);
}

cycles memory_authenticator::fetch_tag(addr_t unit_addr, std::span<u8> out) {
  const addr_t ta = tag_addr(unit_addr);
  const addr_t tag_line = ta - ta % k_tag_line;
  const std::size_t off = static_cast<std::size_t>(ta - tag_line);

  const tag_line_bytes* line = tag_cache_.find(tag_line);
  tag_line_bytes fill{};
  cycles spent = 0;
  if (line == nullptr) { // a disabled cache fetches, copies, never installs
    ++stats_.tag_misses;
    ++stats_.tag_bus_reads;
    spent = lower_->read(tag_line, fill);
    tag_cache_.put(tag_line, fill);
    line = &fill;
  } else {
    ++stats_.tag_hits;
  }
  std::copy_n(line->begin() + static_cast<std::ptrdiff_t>(off), out.size(), out.begin());
  return spent;
}

cycles memory_authenticator::store_tag(addr_t unit_addr, const digest& tag) {
  const addr_t ta = tag_addr(unit_addr);
  const addr_t tag_line = ta - ta % k_tag_line;
  if (tag_line_bytes* line = tag_cache_.find(tag_line))
    std::copy_n(tag.begin(), cfg_.tag_bytes,
                line->begin() + static_cast<std::ptrdiff_t>(ta - tag_line));
  ++stats_.tag_bus_writes;
  return lower_->write(ta, view(tag)); // write-through: the chip stays in sync
}

// --- hash tree -----------------------------------------------------------------

addr_t memory_authenticator::node_addr(unsigned level, u64 index) const noexcept {
  return level_base_[level] + index * cfg_.tag_bytes;
}

memory_authenticator::digest
memory_authenticator::leaf_digest(u64 index, std::span<const u8> ct) const noexcept {
  u8 head[9];
  head[0] = 'L'; // domain separation: a leaf can never collide with a node
  store_be64(head + 1, index);
  return keyed_digest(head, ct);
}

memory_authenticator::digest
memory_authenticator::node_digest(unsigned level, u64 index,
                                  std::span<const u8> children) noexcept {
  // A pure function of (level, index, children), remembered per level: on
  // a sequential install, pass A of a unit re-derives, from byte-identical
  // children, every node above its common ancestor with the previous unit
  // that the previous unit's pass B just computed. A tampered child makes
  // the input differ and is hashed for real.
  memo_entry& m = memo_[level];
  if (m.index == index && m.len == children.size() &&
      std::equal(children.begin(), children.end(), m.children.begin()))
    return m.d;
  u8 head[10];
  head[0] = 'N';
  head[1] = static_cast<u8>(level);
  store_be64(head + 2, index);
  m.index = index;
  m.len = children.size();
  std::copy(children.begin(), children.end(), m.children.begin());
  m.d = keyed_digest(head, children);
  return m.d;
}

void memory_authenticator::read_node(unsigned level, u64 index, u8* out, cycles& bus) {
  if (const digest* d = node_cache_.find(node_key(level, index))) {
    ++stats_.tag_hits;
    std::copy_n(d->begin(), cfg_.tag_bytes, out);
    return;
  }
  ++stats_.tag_misses;
  ++stats_.tag_bus_reads;
  bus += lower_->read(node_addr(level, index), std::span<u8>(out, cfg_.tag_bytes));
}

void memory_authenticator::write_node(unsigned level, u64 index, const digest& d,
                                      cycles& bus) {
  ++stats_.tag_bus_writes;
  bus += lower_->write(node_addr(level, index), view(d));
  node_cache_.put(node_key(level, index), d);
}

memory_authenticator::sibling_group memory_authenticator::group_of(unsigned level,
                                                                   u64 index) noexcept {
  const u64 first = index / cfg_.tree_arity * cfg_.tree_arity;
  const u64 last = std::min<u64>(first + cfg_.tree_arity, level_sizes_[level]);
  const std::size_t tb = cfg_.tag_bytes;
  return {first, std::span<u8>(walk_children_.data() + level * cfg_.tree_arity * tb,
                               static_cast<std::size_t>(last - first) * tb)};
}

// --- area ----------------------------------------------------------------------

std::size_t memory_authenticator::area_stored_bytes(std::size_t granule) const noexcept {
  const std::size_t cap = granule - cfg_.tag_bytes;
  const std::size_t blocks = (unit_ + cap - 1) / cap;
  return blocks * granule;
}

memory_authenticator::digest
memory_authenticator::area_nonce(addr_t unit_addr, u64 version,
                                 std::size_t block) const noexcept {
  // A per-block slice of PRF(address, version, block index): relocation
  // changes the address, replay the version, so either garbles the check.
  u8 msg[24];
  store_be64(msg, unit_addr);
  store_be64(msg + 8, version);
  store_be64(msg + 16, block);
  return keyed_digest(msg);
}

cycles memory_authenticator::area_encipher(keyed_cipher& kc, addr_t unit_addr,
                                           std::span<const u8> plain,
                                           std::span<u8> dram_ct, bool initial,
                                           bool charge) {
  const std::size_t g = kc.granule();
  const std::size_t cap = g - cfg_.tag_bytes;
  const std::size_t stored = area_stored_bytes(g);
  const std::size_t blocks = stored / g;
  const u64 version = initial ? version_of(unit_addr) : ++versions_[unit_addr];

  // Expanded payload: each cipher block = data slice + nonce slice, so the
  // redundancy sits inside every diffusion domain of the unit.
  bytes& expanded = area_scratch_;
  expanded.assign(stored, 0);
  std::size_t taken = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t n = std::min(cap, plain.size() - taken);
    std::copy_n(plain.begin() + static_cast<std::ptrdiff_t>(taken), n,
                expanded.begin() + static_cast<std::ptrdiff_t>(b * g));
    taken += n;
    const digest nonce = area_nonce(unit_addr, version, b);
    std::copy_n(nonce.begin(), cfg_.tag_bytes,
                expanded.begin() + static_cast<std::ptrdiff_t>(b * g + cap));
  }
  kc.encrypt_unit(unit_addr / unit_, expanded, expanded);

  // First unit_ bytes take the unit's normal DRAM burst; the expansion
  // rides the widened-memory sideband cells — zero extra bus beats.
  std::copy_n(expanded.begin(), unit_, dram_ct.begin());
  sideband_[unit_addr].assign(expanded.begin() + static_cast<std::ptrdiff_t>(unit_),
                              expanded.end());
  ++stats_.updates;
  if (!charge) return 0;
  const cycles t = kc.unit_cost(stored, /*encrypt=*/true) +
                   mac_time(cfg_.tag_bytes * blocks);
  stats_.auth_cycles += mac_time(cfg_.tag_bytes * blocks);
  return t;
}

std::size_t
memory_authenticator::area_snapshot_bytes(const keyed_cipher& kc) const noexcept {
  return k_snap_head + area_stored_bytes(kc.granule()) - unit_;
}

void memory_authenticator::area_prepare(addr_t unit_addr, std::span<u8> snap) const {
  store_be64(snap.data(), version_of(unit_addr));
  const auto sb = sideband_.find(unit_addr);
  snap[8] = sb != sideband_.end();
  const std::span<u8> cells = snap.subspan(k_snap_head);
  std::fill(cells.begin(), cells.end(), u8{0});
  if (sb != sideband_.end())
    std::copy_n(sb->second.begin(), std::min(sb->second.size(), cells.size()),
                cells.begin());
}

memory_authenticator::check_result
memory_authenticator::area_decipher(keyed_cipher& kc, addr_t unit_addr,
                                    std::span<const u8> dram_ct,
                                    std::span<u8> plain_out, bool charge) {
  const auto sb = sideband_.find(unit_addr);
  return area_unseal(kc, unit_addr, dram_ct, plain_out, version_of(unit_addr),
                     sb == sideband_.end() ? std::span<const u8>{} : sb->second, charge);
}

cycles memory_authenticator::area_unseal_cycles(const keyed_cipher& kc) const noexcept {
  const std::size_t g = kc.granule();
  const std::size_t stored = area_stored_bytes(g);
  return kc.unit_cost(stored, /*encrypt=*/false) +
         mac_time(cfg_.tag_bytes * (stored / g));
}

memory_authenticator::check_result
memory_authenticator::area_finish(keyed_cipher& kc, addr_t unit_addr,
                                  std::span<const u8> dram_ct,
                                  std::span<u8> plain_out, std::span<const u8> snap,
                                  bool charge) {
  return area_unseal(kc, unit_addr, dram_ct, plain_out, load_be64(snap.data()),
                     snap[8] != 0 ? snap.subspan(k_snap_head) : std::span<const u8>{},
                     charge);
}

memory_authenticator::check_result
memory_authenticator::area_unseal(keyed_cipher& kc, addr_t unit_addr,
                                  std::span<const u8> dram_ct, std::span<u8> plain_out,
                                  u64 version, std::span<const u8> sideband,
                                  bool charge) {
  const std::size_t g = kc.granule();
  const std::size_t cap = g - cfg_.tag_bytes;
  const std::size_t stored = area_stored_bytes(g);
  const std::size_t blocks = stored / g;

  bytes& expanded = area_scratch_;
  expanded.assign(stored, 0);
  std::copy(dram_ct.begin(), dram_ct.end(), expanded.begin());
  std::copy(sideband.begin(), sideband.end(),
            expanded.begin() + static_cast<std::ptrdiff_t>(unit_));
  kc.decrypt_unit(unit_addr / unit_, expanded, expanded);

  check_result r;
  r.ok = !sideband.empty();
  std::size_t taken = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::span<const u8> slice(expanded.data() + b * g + cap, cfg_.tag_bytes);
    if (!crypto::tag_equal(view(area_nonce(unit_addr, version, b)), slice)) r.ok = false;
    const std::size_t n = std::min(cap, plain_out.size() - taken);
    std::copy_n(expanded.begin() + static_cast<std::ptrdiff_t>(b * g), n,
                plain_out.begin() + static_cast<std::ptrdiff_t>(taken));
    taken += n;
  }
  ++stats_.verifies;
  if (!r.ok) ++stats_.faults;
  r.compute = area_unseal_cycles(kc);
  note(r, charge);
  return r;
}

// --- verify / update ------------------------------------------------------------

memory_authenticator::check_result
memory_authenticator::verify_unit(addr_t unit_addr, std::span<const u8> ct,
                                  bool charge) {
  check_result r;
  ++stats_.verifies;

  if (cfg_.mode == auth_mode::mac) {
    digest stored{};
    r.bus = fetch_tag(unit_addr, std::span<u8>(stored.data(), cfg_.tag_bytes));
    const digest expect = unit_tag(unit_addr, version_of(unit_addr), ct);
    r.compute = mac_time(ct.size());
    r.ok = crypto::tag_equal(view(expect), view(stored));
    if (!r.ok) ++stats_.faults;
    note(r, charge);
    return r;
  }

  // hash_tree: climb from the computed leaf until a trusted cached node
  // (early exit) or the on-chip root settles it. Fetched siblings and
  // computed path nodes become trusted only if the walk verifies.
  const unsigned levels = tree_levels();
  const std::size_t tb = cfg_.tag_bytes;
  u64 idx = unit_index(unit_addr);
  digest cur = leaf_digest(idx, ct);
  r.compute += mac_time(ct.size());
  walk_install_.clear();
  walk_install_.emplace_back(node_key(0, idx), cur);
  bool decided = false;
  for (unsigned lvl = 0; lvl < levels; ++lvl) {
    ++stats_.nodes_walked;
    if (const digest* hit = node_cache_.find(node_key(lvl, idx))) {
      ++stats_.tag_hits;
      r.ok = same(*hit, cur);
      decided = true;
      break;
    }
    const sibling_group g = group_of(lvl, idx);
    for (std::size_t i = 0; i * tb < g.children.size(); ++i) {
      u8* const slot = &g.children[i * tb];
      const u64 c = g.first + i;
      if (c == idx) {
        std::copy_n(cur.begin(), tb, slot);
        continue;
      }
      read_node(lvl, c, slot, r.bus);
      digest& sib = walk_install_.emplace_back(node_key(lvl, c), digest{}).second;
      std::copy_n(slot, tb, sib.begin());
    }
    idx /= cfg_.tree_arity;
    cur = node_digest(lvl + 1, idx, g.children);
    r.compute += mac_time(g.children.size());
    if (lvl + 1 < levels) walk_install_.emplace_back(node_key(lvl + 1, idx), cur);
  }
  if (!decided) r.ok = same(cur, root_);
  if (r.ok) {
    for (const auto& [key, d] : walk_install_) node_cache_.put(key, d);
  } else {
    ++stats_.faults;
  }
  note(r, charge);
  return r;
}

memory_authenticator::check_result
memory_authenticator::update_unit(addr_t unit_addr, std::span<const u8> ct,
                                  bool charge) {
  check_result r;
  ++stats_.updates;

  if (cfg_.mode == auth_mode::mac) {
    const u64 version = cfg_.versioned ? ++versions_[unit_addr] : 0;
    const digest tag = unit_tag(unit_addr, version, ct);
    r.compute = mac_time(ct.size());
    r.bus = store_tag(unit_addr, tag);
    note(r, charge);
    return r;
  }

  // hash_tree. Pass A authenticates the stored path first — a tampered
  // sibling must never be hashed into the new root — then pass B rebuilds
  // the path from the new leaf with those (now trusted) siblings. A pass-A
  // mismatch refuses the whole update (fail-stop): stored nodes and the
  // root stay untouched, the subtree reads as tampered until an operator
  // re-seals the region. Each level's sibling group stays in the walk
  // scratch between the passes; pass B overwrites only its own slot.
  const unsigned levels = tree_levels();
  const std::size_t tb = cfg_.tag_bytes;
  const u64 leaf_idx = unit_index(unit_addr);

  if (levels > 0) {
    u64 idx = leaf_idx;
    digest cur{};
    read_node(0, idx, cur.data(), r.bus);
    for (unsigned lvl = 0; lvl < levels; ++lvl) {
      ++stats_.nodes_walked;
      const sibling_group g = group_of(lvl, idx);
      for (std::size_t i = 0; i * tb < g.children.size(); ++i) {
        u8* const slot = &g.children[i * tb];
        if (g.first + i == idx) std::copy_n(cur.begin(), tb, slot);
        else read_node(lvl, g.first + i, slot, r.bus);
      }
      idx /= cfg_.tree_arity;
      cur = node_digest(lvl + 1, idx, g.children);
      r.compute += mac_time(g.children.size());
    }
    r.ok = same(cur, root_);
    if (!r.ok) {
      ++stats_.faults;
      note(r, charge);
      return r; // refused: nothing below may reach the root
    }
  }

  digest cur = leaf_digest(leaf_idx, ct);
  r.compute += mac_time(ct.size());
  u64 idx = leaf_idx;
  if (levels > 0) write_node(0, idx, cur, r.bus);
  node_cache_.put(node_key(0, idx), cur);
  for (unsigned lvl = 0; lvl < levels; ++lvl) {
    const sibling_group g = group_of(lvl, idx);
    std::copy_n(cur.begin(), tb, &g.children[(idx - g.first) * tb]);
    idx /= cfg_.tree_arity;
    cur = node_digest(lvl + 1, idx, g.children);
    r.compute += mac_time(g.children.size());
    if (lvl + 1 < levels) {
      write_node(lvl + 1, idx, cur, r.bus);
    } else {
      // Pass-A siblings proved authentic: keep them warm for later walks.
      for (std::size_t i = 0; i * tb < g.children.size(); ++i) {
        digest sib{};
        std::copy_n(&g.children[i * tb], tb, sib.begin());
        node_cache_.put(node_key(lvl, g.first + i), sib);
      }
    }
  }
  root_ = cur;
  note(r, charge);
  return r;
}

// --- batched-pipeline protocol (mac) --------------------------------------------

void memory_authenticator::open_window(sim::txn_batcher& b) {
  if (batch_open_) return;
  batch_open_ = true;
  b.at_flush_end([this] { batch_flush_done(); });
}

memory_authenticator::staged_verify
memory_authenticator::batch_prepare_verify(addr_t unit_addr, sim::txn_batcher& b,
                                           sim::master_id master) {
  open_window(b);
  staged_verify sv;
  sv.unit_addr = unit_addr;
  sv.version = version_of(unit_addr);
  const addr_t ta = tag_addr(unit_addr);
  sv.tag_line = ta - ta % k_tag_line;
  sv.tag_off = static_cast<std::size_t>(ta - sv.tag_line);
  // A tag staged earlier in this window forwards on-chip — the DRAM copy is
  // still in flight on the same batch.
  if (const auto fwd = staged_tags_.find(ta); fwd != staged_tags_.end()) {
    ++stats_.tag_hits;
    sv.tag = fwd->second;
    return sv;
  }
  if (const tag_line_bytes* line = tag_cache_.find(sv.tag_line)) {
    ++stats_.tag_hits;
    std::copy_n(line->begin() + static_cast<std::ptrdiff_t>(sv.tag_off), cfg_.tag_bytes,
                sv.tag.begin());
    return sv;
  }
  ++stats_.tag_misses;
  auto [fetch, fresh] = window_fetches_.try_emplace(sv.tag_line);
  if (fresh) {
    ++stats_.tag_bus_reads;
    bytes& buf = b.scratch(k_tag_line);
    fetch->second = {b.queue_side(sim::txn_op::read, master, sv.tag_line, buf), buf};
  }
  std::tie(sv.fetch, sv.fetched) = fetch->second;
  return sv;
}

memory_authenticator::check_result
memory_authenticator::batch_finish_verify(const staged_verify& sv,
                                          std::span<const u8> ct, bool charge) {
  check_result r;
  ++stats_.verifies;
  std::span<const u8> stored = view(sv.tag);
  if (sv.fetch != sim::txn_batcher::no_lower) {
    // The fetch was ordered before any tag write staged later in this
    // window: overlay those so the installed line is current, not stale.
    tag_line_bytes line{};
    std::copy_n(sv.fetched.begin(), k_tag_line, line.begin());
    for (const auto& [ta, tag] : staged_tags_) {
      if (ta < sv.tag_line || ta >= sv.tag_line + k_tag_line) continue;
      std::copy_n(tag.begin(), cfg_.tag_bytes,
                  line.begin() + static_cast<std::ptrdiff_t>(ta - sv.tag_line));
    }
    tag_cache_.put(sv.tag_line, line);
    stored = sv.fetched.subspan(sv.tag_off, cfg_.tag_bytes);
  }
  const digest expect = unit_tag(sv.unit_addr, sv.version, ct);
  r.compute = unit_mac_cycles();
  r.ok = crypto::tag_equal(view(expect), stored);
  if (!r.ok) ++stats_.faults;
  note(r, charge);
  return r;
}

cycles memory_authenticator::batch_stage_update(addr_t unit_addr, std::span<const u8> ct,
                                                bool charge, sim::txn_batcher& b,
                                                sim::master_id master) {
  open_window(b);
  ++stats_.updates;
  const u64 version = cfg_.versioned ? ++versions_[unit_addr] : 0;
  const digest tag = unit_tag(unit_addr, version, ct);
  const addr_t ta = tag_addr(unit_addr);
  staged_tags_[ta] = tag; // forward to later reads in this window
  cycles compute = 0;
  if (charge) {
    compute = unit_mac_cycles();
    stats_.auth_cycles += compute;
  }
  // Write-through semantics: the cached line (if any) sees the new tag
  // now; the external write rides the same window.
  if (tag_line_bytes* line = tag_cache_.find(ta - ta % k_tag_line))
    std::copy_n(tag.begin(), cfg_.tag_bytes,
                line->begin() + static_cast<std::ptrdiff_t>(ta % k_tag_line));
  ++stats_.tag_bus_writes;
  (void)b.queue_side(sim::txn_op::write, master, ta, b.scratch_copy(view(tag)));
  return compute;
}

// --- lifecycle ------------------------------------------------------------------

void memory_authenticator::seal_from_memory() {
  // Precondition: no open batch window. A reseal here would recompute tags
  // from DRAM while staged tag writes are still riding the in-flight lower
  // batch — the flush would then land stale tags over the fresh seal,
  // silent corruption that only surfaces as spurious faults much later.
  if (batch_open_)
    throw std::logic_error("memory_authenticator: seal_from_memory() during an "
                           "open batch flush window");
  if (cfg_.mode == auth_mode::area) return; // the engine seals, it owns the cipher
  drop_caches(); // stale trusted digests must not outlive a reseal
  bytes ct(unit_);
  if (cfg_.mode == auth_mode::mac) {
    for (addr_t a = cfg_.base; a < cfg_.limit; a += unit_) {
      (void)lower_->read(a, ct);
      (void)lower_->write(tag_addr(a), view(unit_tag(a, version_of(a), ct)));
    }
    return;
  }
  // hash_tree: build bottom-up over the current content, store every
  // level, keep the root on-chip. Each level is one flat array packed at
  // tag_bytes, so a node's children are one contiguous slice of it.
  const std::size_t tb = cfg_.tag_bytes;
  const std::size_t lines = static_cast<std::size_t>((cfg_.limit - cfg_.base) / unit_);
  bytes level(lines * tb);
  bytes up;
  for (std::size_t i = 0; i < lines; ++i) {
    (void)lower_->read(cfg_.base + i * unit_, ct);
    std::copy_n(leaf_digest(i, ct).begin(), tb, &level[i * tb]);
  }
  for (unsigned lvl = 0;; ++lvl) {
    const std::span<const u8> nodes(level);
    const std::size_t n = nodes.size() / tb;
    if (lvl < tree_levels())
      for (std::size_t i = 0; i < n; ++i)
        (void)lower_->write(node_addr(lvl, i), nodes.subspan(i * tb, tb));
    if (n == 1) {
      std::copy_n(nodes.begin(), tb, root_.begin());
      return;
    }
    up.resize((n + cfg_.tree_arity - 1) / cfg_.tree_arity * tb);
    for (std::size_t p = 0; p < up.size() / tb; ++p) {
      const std::size_t first = p * cfg_.tree_arity;
      const std::size_t last = std::min<std::size_t>(first + cfg_.tree_arity, n);
      const digest d =
          node_digest(lvl + 1, p, nodes.subspan(first * tb, (last - first) * tb));
      std::copy_n(d.begin(), tb, &up[p * tb]);
    }
    level.swap(up);
  }
}

void memory_authenticator::drop_caches() noexcept {
  tag_cache_.clear();
  node_cache_.clear();
  // A power cut can unwind a submit() mid-flush, before batch_flush_done()
  // retires the window. The window is volatile state: left set, a
  // perfectly legitimate post-boot reseal would trip the open-batch guard
  // forever, and a later miss would reuse a dead window's fetch.
  batch_flush_done();
}

bytes* memory_authenticator::area_sideband(addr_t unit_addr) noexcept {
  const auto it = sideband_.find(unit_addr);
  return it == sideband_.end() ? nullptr : &it->second;
}

std::size_t memory_authenticator::tag_memory_bytes() const noexcept {
  if (cfg_.mode == auth_mode::area) return 0;
  const u64 lines = (cfg_.limit - cfg_.base) / unit_;
  if (cfg_.mode == auth_mode::mac)
    return static_cast<std::size_t>(lines) * cfg_.tag_bytes;
  u64 nodes = 0;
  for (const u64 n : level_sizes_) nodes += n;
  return static_cast<std::size_t>(nodes) * cfg_.tag_bytes;
}

std::size_t memory_authenticator::onchip_bytes() const noexcept {
  const std::size_t root = cfg_.mode == auth_mode::hash_tree ? cfg_.tag_bytes : 0;
  return version_ram_bytes() + tag_cache_.size() * k_tag_line +
         node_cache_.size() * cfg_.tag_bytes + root;
}

} // namespace buscrypt::engine
