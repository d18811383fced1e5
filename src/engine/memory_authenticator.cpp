#include "engine/memory_authenticator.hpp"

#include "common/bitops.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace buscrypt::engine {

bool parse_auth_mode(std::string_view name, auth_mode& out) noexcept {
  for (const auth_mode m : all_auth_modes)
    if (name == auth_mode_name(m)) {
      out = m;
      return true;
    }
  return false;
}

namespace {

/// Node-cache key: stored tree levels stay tiny (< 2^8) and node indices
/// far below 2^56, so one u64 addresses the whole (level, index) space.
[[nodiscard]] constexpr u64 node_key(unsigned level, u64 index) noexcept {
  return (u64{level} << 56) | index;
}

} // namespace

memory_authenticator::memory_authenticator(sim::memory_port& lower, auth_config cfg,
                                           std::size_t unit_bytes)
    : lower_(&lower), cfg_(std::move(cfg)), unit_(unit_bytes), mac_key_(cfg_.key) {
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
    root_.assign(cfg_.tag_bytes, 0);
  }
  if (cfg_.mode != auth_mode::area) {
    const addr_t tag_end = cfg_.tag_base + tag_memory_bytes();
    if (cfg_.tag_base < cfg_.limit && tag_end > cfg_.base)
      throw std::invalid_argument("memory_authenticator: tag region overlaps the "
                                  "authenticated window");
  }
}

cycles memory_authenticator::mac_time(std::size_t nbytes) const noexcept {
  return cfg_.mac_startup +
         static_cast<cycles>(static_cast<double>(nbytes) * cfg_.mac_cycles_per_byte);
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

// --- mac -----------------------------------------------------------------------

addr_t memory_authenticator::tag_addr(addr_t unit_addr) const noexcept {
  return cfg_.tag_base + unit_index(unit_addr) * cfg_.tag_bytes;
}

bytes memory_authenticator::unit_tag(addr_t unit_addr, u64 version,
                                     std::span<const u8> ct) const {
  // Address in the MAC defeats splicing, the version defeats replay, the
  // ciphertext itself defeats spoofing.
  u8 head[16];
  store_be64(head, unit_addr);
  store_be64(head + 8, version);
  return mac_key_.tag(cfg_.tag_bytes, head, ct);
}

cycles memory_authenticator::fetch_tag(addr_t unit_addr, std::span<u8> out) {
  const addr_t ta = tag_addr(unit_addr);
  const addr_t tag_line = ta - ta % k_tag_line;
  const std::size_t off = static_cast<std::size_t>(ta - tag_line);

  auto it = tag_cache_.find(tag_line);
  cycles spent = 0;
  if (it == tag_cache_.end() || cfg_.tag_cache_entries == 0) {
    ++stats_.tag_misses;
    ++stats_.tag_bus_reads;
    bytes fill(k_tag_line);
    spent = lower_->read(tag_line, fill);
    if (cfg_.tag_cache_entries == 0) {
      std::copy_n(fill.begin() + static_cast<std::ptrdiff_t>(off), out.size(),
                  out.begin());
      return spent;
    }
    install_tag_line(tag_line, fill);
    it = tag_cache_.find(tag_line);
  } else {
    ++stats_.tag_hits;
  }
  std::copy_n(it->second.begin() + static_cast<std::ptrdiff_t>(off), out.size(),
              out.begin());
  return spent;
}

void memory_authenticator::install_tag_line(addr_t tag_line, std::span<const u8> data) {
  if (cfg_.tag_cache_entries == 0) return;
  auto it = tag_cache_.find(tag_line);
  if (it != tag_cache_.end()) {
    it->second.assign(data.begin(), data.end());
    return;
  }
  if (tag_cache_fifo_.size() >= cfg_.tag_cache_entries) {
    tag_cache_.erase(tag_cache_fifo_.front());
    tag_cache_fifo_.erase(tag_cache_fifo_.begin());
  }
  tag_cache_.emplace(tag_line, bytes(data.begin(), data.end()));
  tag_cache_fifo_.push_back(tag_line);
}

cycles memory_authenticator::store_tag(addr_t unit_addr, std::span<const u8> tag) {
  const addr_t ta = tag_addr(unit_addr);
  const addr_t tag_line = ta - ta % k_tag_line;
  const auto it = tag_cache_.find(tag_line);
  if (it != tag_cache_.end()) {
    const std::size_t off = static_cast<std::size_t>(ta - tag_line);
    std::copy(tag.begin(), tag.end(),
              it->second.begin() + static_cast<std::ptrdiff_t>(off));
  }
  ++stats_.tag_bus_writes;
  return lower_->write(ta, tag); // write-through: the chip stays in sync
}

// --- hash tree -----------------------------------------------------------------

addr_t memory_authenticator::node_addr(unsigned level, u64 index) const noexcept {
  return level_base_[level] + index * cfg_.tag_bytes;
}

bytes memory_authenticator::leaf_digest(u64 index, std::span<const u8> ct) const {
  u8 head[9];
  head[0] = 'L'; // domain separation: a leaf can never collide with a node
  store_be64(head + 1, index);
  return mac_key_.tag(cfg_.tag_bytes, head, ct);
}

bytes memory_authenticator::node_digest(unsigned level, u64 index,
                                        std::span<const u8> children) const {
  u8 head[10];
  head[0] = 'N';
  head[1] = static_cast<u8>(level);
  store_be64(head + 2, index);
  return mac_key_.tag(cfg_.tag_bytes, head, children);
}

bytes memory_authenticator::read_node(unsigned level, u64 index, cycles& bus,
                                      bool* from_cache) {
  const auto it = node_cache_.find(node_key(level, index));
  if (it != node_cache_.end()) {
    ++stats_.tag_hits;
    if (from_cache != nullptr) *from_cache = true;
    return it->second;
  }
  ++stats_.tag_misses;
  ++stats_.tag_bus_reads;
  if (from_cache != nullptr) *from_cache = false;
  bytes out(cfg_.tag_bytes);
  bus += lower_->read(node_addr(level, index), out);
  return out;
}

void memory_authenticator::cache_node(unsigned level, u64 index, const bytes& digest) {
  if (cfg_.tag_cache_entries == 0) return;
  const u64 key = node_key(level, index);
  const auto it = node_cache_.find(key);
  if (it != node_cache_.end()) {
    it->second = digest;
    return;
  }
  if (node_cache_fifo_.size() >= cfg_.tag_cache_entries) {
    node_cache_.erase(node_cache_fifo_.front());
    node_cache_fifo_.erase(node_cache_fifo_.begin());
  }
  node_cache_.emplace(key, digest);
  node_cache_fifo_.push_back(key);
}

void memory_authenticator::write_node(unsigned level, u64 index, const bytes& digest,
                                      cycles& bus) {
  ++stats_.tag_bus_writes;
  bus += lower_->write(node_addr(level, index), digest);
  cache_node(level, index, digest);
}

// --- area ----------------------------------------------------------------------

std::size_t memory_authenticator::area_stored_bytes(std::size_t granule) const noexcept {
  const std::size_t cap = granule - cfg_.tag_bytes;
  const std::size_t blocks = (unit_ + cap - 1) / cap;
  return blocks * granule;
}

bytes memory_authenticator::area_nonce(addr_t unit_addr, u64 version,
                                       std::size_t block) const {
  // A per-block slice of PRF(address, version, block index): relocation
  // changes the address, replay the version, so either garbles the check.
  u8 msg[24];
  store_be64(msg, unit_addr);
  store_be64(msg + 8, version);
  store_be64(msg + 16, block);
  return mac_key_.tag(cfg_.tag_bytes, msg);
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
  bytes expanded(stored, 0);
  std::size_t taken = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t n = std::min(cap, plain.size() - taken);
    std::copy_n(plain.begin() + static_cast<std::ptrdiff_t>(taken), n,
                expanded.begin() + static_cast<std::ptrdiff_t>(b * g));
    taken += n;
    const bytes nonce = area_nonce(unit_addr, version, b);
    std::copy(nonce.begin(), nonce.end(),
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

memory_authenticator::area_staged
memory_authenticator::area_prepare(addr_t unit_addr) const {
  area_staged staged;
  staged.version = version_of(unit_addr);
  const auto sb = sideband_.find(unit_addr);
  if (sb != sideband_.end()) staged.sideband = sb->second;
  return staged;
}

memory_authenticator::check_result
memory_authenticator::area_decipher(keyed_cipher& kc, addr_t unit_addr,
                                    std::span<const u8> dram_ct,
                                    std::span<u8> plain_out, bool charge) {
  return area_finish(kc, unit_addr, dram_ct, plain_out, area_prepare(unit_addr),
                     charge);
}

cycles memory_authenticator::area_unseal_cycles(const keyed_cipher& kc) const noexcept {
  const std::size_t g = kc.granule();
  const std::size_t stored = area_stored_bytes(g);
  return kc.unit_cost(stored, /*encrypt=*/false) + mac_time(cfg_.tag_bytes * (stored / g));
}

memory_authenticator::check_result
memory_authenticator::area_finish(keyed_cipher& kc, addr_t unit_addr,
                                  std::span<const u8> dram_ct,
                                  std::span<u8> plain_out, const area_staged& staged,
                                  bool charge) {
  const std::size_t g = kc.granule();
  const std::size_t cap = g - cfg_.tag_bytes;
  const std::size_t stored = area_stored_bytes(g);
  const std::size_t blocks = stored / g;
  const u64 version = staged.version;

  bytes expanded(stored, 0);
  std::copy(dram_ct.begin(), dram_ct.end(), expanded.begin());
  std::copy(staged.sideband.begin(), staged.sideband.end(),
            expanded.begin() + static_cast<std::ptrdiff_t>(unit_));
  kc.decrypt_unit(unit_addr / unit_, expanded, expanded);

  check_result r;
  r.ok = !staged.sideband.empty();
  std::size_t taken = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const bytes nonce = area_nonce(unit_addr, version, b);
    if (!crypto::tag_equal(
            nonce, std::span<const u8>(expanded).subspan(b * g + cap, cfg_.tag_bytes)))
      r.ok = false;
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
    bytes stored(cfg_.tag_bytes);
    r.bus = fetch_tag(unit_addr, stored);
    const bytes expect = unit_tag(unit_addr, version_of(unit_addr), ct);
    r.compute = mac_time(ct.size());
    r.ok = crypto::tag_equal(expect, stored);
    if (!r.ok) ++stats_.faults;
    note(r, charge);
    return r;
  }

  // hash_tree: climb from the computed leaf until a trusted cached node
  // (early exit) or the on-chip root settles it. Fetched siblings and
  // computed path nodes become trusted only if the walk verifies.
  const unsigned levels = tree_levels();
  u64 idx = unit_index(unit_addr);
  bytes cur = leaf_digest(idx, ct);
  r.compute += mac_time(ct.size());
  std::vector<std::pair<u64, bytes>> install;
  install.emplace_back(node_key(0, idx), cur);
  bool decided = false;
  for (unsigned lvl = 0; lvl < levels; ++lvl) {
    ++stats_.nodes_walked;
    const auto hit = node_cache_.find(node_key(lvl, idx));
    if (hit != node_cache_.end()) {
      ++stats_.tag_hits;
      r.ok = hit->second == cur;
      decided = true;
      break;
    }
    const u64 parent = idx / cfg_.tree_arity;
    const u64 first = parent * cfg_.tree_arity;
    const u64 last = std::min<u64>(first + cfg_.tree_arity, level_sizes_[lvl]);
    bytes children;
    children.reserve(static_cast<std::size_t>(last - first) * cfg_.tag_bytes);
    for (u64 c = first; c < last; ++c) {
      if (c == idx) {
        children.insert(children.end(), cur.begin(), cur.end());
        continue;
      }
      const bytes d = read_node(lvl, c, r.bus);
      children.insert(children.end(), d.begin(), d.end());
      install.emplace_back(node_key(lvl, c), d);
    }
    cur = node_digest(lvl + 1, parent, children);
    r.compute += mac_time(children.size());
    idx = parent;
    if (lvl + 1 < levels) install.emplace_back(node_key(lvl + 1, idx), cur);
  }
  if (!decided) r.ok = cur == root_;
  if (r.ok) {
    for (const auto& [key, digest] : install)
      cache_node(static_cast<unsigned>(key >> 56), key & ~(u64{0xFF} << 56), digest);
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
    const bytes tag = unit_tag(unit_addr, version, ct);
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
  // re-seals the region.
  const unsigned levels = tree_levels();
  const u64 leaf_idx = unit_index(unit_addr);

  struct level_ctx {
    u64 first = 0, last = 0, self = 0;
    std::vector<bytes> children; ///< self slot overwritten in pass B
  };
  std::vector<level_ctx> path(levels);

  if (levels > 0) {
    u64 idx = leaf_idx;
    bytes cur = read_node(0, idx, r.bus);
    for (unsigned lvl = 0; lvl < levels; ++lvl) {
      ++stats_.nodes_walked;
      level_ctx& lc = path[lvl];
      const u64 parent = idx / cfg_.tree_arity;
      lc.first = parent * cfg_.tree_arity;
      lc.last = std::min<u64>(lc.first + cfg_.tree_arity, level_sizes_[lvl]);
      lc.self = idx;
      bytes children;
      for (u64 c = lc.first; c < lc.last; ++c) {
        bytes d = c == idx ? cur : read_node(lvl, c, r.bus);
        children.insert(children.end(), d.begin(), d.end());
        lc.children.push_back(std::move(d));
      }
      cur = node_digest(lvl + 1, parent, children);
      r.compute += mac_time(children.size());
      idx = parent;
    }
    r.ok = cur == root_;
    if (!r.ok) {
      ++stats_.faults;
      note(r, charge);
      return r; // refused: nothing below may reach the root
    }
  }

  bytes cur = leaf_digest(leaf_idx, ct);
  r.compute += mac_time(ct.size());
  u64 idx = leaf_idx;
  if (levels > 0) write_node(0, idx, cur, r.bus);
  cache_node(0, idx, cur);
  for (unsigned lvl = 0; lvl < levels; ++lvl) {
    level_ctx& lc = path[lvl];
    lc.children[static_cast<std::size_t>(lc.self - lc.first)] = cur;
    bytes children;
    for (const bytes& d : lc.children) children.insert(children.end(), d.begin(), d.end());
    const u64 parent = idx / cfg_.tree_arity;
    cur = node_digest(lvl + 1, parent, children);
    r.compute += mac_time(children.size());
    idx = parent;
    if (lvl + 1 < levels) {
      write_node(lvl + 1, idx, cur, r.bus);
    } else {
      // Pass-A siblings proved authentic: keep them warm for later walks.
      if (r.ok)
        for (u64 c = lc.first; c < lc.last; ++c)
          cache_node(lvl, c, lc.children[static_cast<std::size_t>(c - lc.first)]);
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
  const auto it = tag_cache_.find(sv.tag_line);
  if (it != tag_cache_.end() && cfg_.tag_cache_entries != 0) {
    ++stats_.tag_hits;
    sv.tag.assign(it->second.begin() + static_cast<std::ptrdiff_t>(sv.tag_off),
                  it->second.begin() +
                      static_cast<std::ptrdiff_t>(sv.tag_off + cfg_.tag_bytes));
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
  std::span<const u8> stored = sv.tag;
  if (sv.fetch != sim::txn_batcher::no_lower) {
    install_tag_line(sv.tag_line, sv.fetched);
    // The fetch was ordered before any tag write staged later in this
    // window: overlay those so the installed line is current, not stale.
    if (const auto it = tag_cache_.find(sv.tag_line); it != tag_cache_.end()) {
      for (const auto& [ta, tag] : staged_tags_) {
        if (ta < sv.tag_line || ta >= sv.tag_line + k_tag_line) continue;
        std::copy(tag.begin(), tag.end(),
                  it->second.begin() + static_cast<std::ptrdiff_t>(ta - sv.tag_line));
      }
    }
    stored = sv.fetched.subspan(sv.tag_off, cfg_.tag_bytes);
  }
  const bytes expect = unit_tag(sv.unit_addr, sv.version, ct);
  r.compute = unit_mac_cycles();
  r.ok = crypto::tag_equal(expect, stored);
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
  const bytes tag = unit_tag(unit_addr, version, ct);
  const addr_t ta = tag_addr(unit_addr);
  staged_tags_[ta] = tag; // forward to later reads in this window
  cycles compute = 0;
  if (charge) {
    compute = unit_mac_cycles();
    stats_.auth_cycles += compute;
  }
  // Write-through semantics: the cached line (if any) sees the new tag
  // now; the external write rides the same window.
  const auto it = tag_cache_.find(ta - ta % k_tag_line);
  if (it != tag_cache_.end())
    std::copy(tag.begin(), tag.end(),
              it->second.begin() + static_cast<std::ptrdiff_t>(ta % k_tag_line));
  ++stats_.tag_bus_writes;
  (void)b.queue_side(sim::txn_op::write, master, ta, b.scratch_copy(tag));
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
      (void)lower_->write(tag_addr(a), unit_tag(a, version_of(a), ct));
    }
    return;
  }
  // hash_tree: build bottom-up over the current content, store every
  // level, keep the root on-chip.
  const u64 lines = (cfg_.limit - cfg_.base) / unit_;
  std::vector<bytes> level(static_cast<std::size_t>(lines));
  for (u64 i = 0; i < lines; ++i) {
    (void)lower_->read(cfg_.base + i * unit_, ct);
    level[static_cast<std::size_t>(i)] = leaf_digest(i, ct);
  }
  for (unsigned lvl = 0;; ++lvl) {
    if (lvl < tree_levels())
      for (u64 i = 0; i < level.size(); ++i)
        (void)lower_->write(node_addr(lvl, i), level[static_cast<std::size_t>(i)]);
    if (level.size() == 1) {
      root_ = level.front();
      return;
    }
    std::vector<bytes> up((level.size() + cfg_.tree_arity - 1) / cfg_.tree_arity);
    for (u64 p = 0; p < up.size(); ++p) {
      bytes children;
      const u64 first = p * cfg_.tree_arity;
      const u64 last = std::min<u64>(first + cfg_.tree_arity, level.size());
      for (u64 c = first; c < last; ++c)
        children.insert(children.end(), level[static_cast<std::size_t>(c)].begin(),
                        level[static_cast<std::size_t>(c)].end());
      up[static_cast<std::size_t>(p)] = node_digest(lvl + 1, p, children);
    }
    level = std::move(up);
  }
}

void memory_authenticator::drop_caches() noexcept {
  tag_cache_.clear();
  tag_cache_fifo_.clear();
  node_cache_.clear();
  node_cache_fifo_.clear();
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
  return version_ram_bytes() + tag_cache_.size() * k_tag_line +
         node_cache_.size() * cfg_.tag_bytes + root_.size();
}

} // namespace buscrypt::engine
