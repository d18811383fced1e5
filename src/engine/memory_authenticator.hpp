#pragma once
/// \file memory_authenticator.hpp
/// Memory *authentication* for the keyslot engine — the survey's second
/// pillar next to confidentiality. Encryption alone cannot stop an active
/// attacker who rewrites the external chip: spoofing (chosen/garbled
/// ciphertext), splicing (relocating a valid line) and replay (restoring a
/// stale line) all land on a confidentiality-only engine. This component
/// adds the three countermeasure families the literature converged on,
/// selectable per protected region:
///
///   mac       — a truncated HMAC-SHA256 tag per data unit over
///               (address || version || ciphertext), stored in a dedicated
///               DRAM tag region and fronted by an on-chip tag cache so hot
///               units verify without extra bus beats. The on-chip version
///               counter (bumped per write) is what defeats replay; with
///               `versioned` off every tag covers version 0, the survey's
///               replay-vulnerable per-line MAC.
///   area      — Added Redundancy Explicit Authentication (Elbaz et al.):
///               every cipher block of a unit carries a few bytes of
///               address+version-derived nonce *inside the encrypted
///               payload*. Tampering any ciphertext block garbles its
///               nonce slice on decipher, so the check rides the block
///               cipher's diffusion: zero extra bus traffic, no tag
///               region, no MAC unit — but block modes only (a stream/CTR
///               pad has no diffusion, so bit flips would go unnoticed).
///               The capacity lost to the nonce is modeled as widened
///               memory (ECC-DIMM style): the expansion ciphertext rides
///               the same burst in sideband cells, never as extra beats.
///   hash_tree — an AEGIS-style Merkle tree over the region: leaf = hash
///               of (index || unit ciphertext), interior nodes hash their
///               children, and only the root lives on-chip. Nodes are
///               stored in the DRAM tag region and verified/updated
///               path-wise; an on-chip node cache terminates verification
///               walks early (a cached node is trusted), which is what
///               makes the scheme affordable.
///
/// The authenticator is deliberately engine-agnostic: it authenticates
/// *ciphertext* units (mac, hash_tree) or wraps the engine's own keyed
/// cipher (area), so it composes with any keyslot backend without a second
/// key schedule in the datapath. It is the one MAC engine of the simulator:
/// the keyslot engine and edu::integrity_edu (the tab6 levels) both keep
/// their tags, versions and tag cache here, and both batch paths queue
/// their tag traffic through it.

#include "common/types.hpp"
#include "crypto/mac.hpp"
#include "engine/cipher_backend.hpp"
#include "sim/memory_port.hpp"
#include "sim/txn_batcher.hpp"

#include <array>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace buscrypt::engine {

/// Authentication scheme of one protected region. Under `none` the engine
/// attaches no authenticator: no tag, node or sideband traffic and no MAC
/// cycles, only the cipher datapath.
enum class auth_mode : u8 { none, mac, area, hash_tree };

[[nodiscard]] constexpr std::string_view auth_mode_name(auth_mode m) noexcept {
  switch (m) {
    case auth_mode::none: return "none";
    case auth_mode::mac: return "mac";
    case auth_mode::area: return "area";
    case auth_mode::hash_tree: return "hash-tree";
  }
  return "?";
}

struct auth_config {
  auth_mode mode = auth_mode::none;
  /// MAC / nonce / node-digest key (any length; HMAC-SHA256 inside).
  bytes key;
  /// Authenticated window [base, limit): data-unit aligned, non-empty.
  addr_t base = 0;
  addr_t limit = 0;
  /// mac/hash_tree: stored tag / node digest size (1..32 bytes); mac also
  /// needs it to divide the 64-byte tag line, so no tag straddles two.
  /// area: nonce bytes embedded per cipher block (1..granule-1).
  std::size_t tag_bytes = 8;
  /// mac/hash_tree: external-memory region holding tags / tree nodes. Must
  /// not overlap the window (the tag of a tag would recurse); mac needs it
  /// tag_bytes-aligned.
  addr_t tag_base = 6u << 20;
  /// On-chip cache entries: 64-byte tag lines (mac) or tree nodes
  /// (hash_tree). 0 disables — the naive every-fetch-pays design.
  unsigned tag_cache_entries = 16;
  /// hash_tree fan-out (2..8). Depth trades against per-level fetch width.
  unsigned tree_arity = 2;
  /// mac only: bump an on-chip version per write and bind it into the tag.
  /// false tags every unit with version 0 and keeps no version RAM — the
  /// per-line MAC that splicing and spoofing cannot beat but replay can.
  bool versioned = true;
};

/// Counters the benches and tests read.
struct auth_stats {
  u64 verifies = 0;       ///< units checked on the fetch path
  u64 updates = 0;        ///< units re-tagged / re-sealed on the store path
  u64 faults = 0;         ///< verifications that failed (tamper detected)
  u64 tag_hits = 0;       ///< tag-line / tree-node cache hits
  u64 tag_misses = 0;     ///< misses that had to touch external memory
  u64 tag_bus_reads = 0;  ///< lower-port reads for tags / nodes
  u64 tag_bus_writes = 0; ///< lower-port writes for tags / nodes
  u64 nodes_walked = 0;   ///< hash_tree: levels visited across all walks
  cycles auth_cycles = 0; ///< compute cycles charged (MAC/hash units)
};

/// Per-region authentication engine. One instance guards one window of one
/// encryption context; the bus_encryption_engine owns it and calls the
/// verify/update hooks from both its scalar and batched datapaths.
///
/// What the simulator observes is fixed: every lower-port call (op,
/// address, length, order), every byte written, every counter and every
/// cycle. The update agent's armed fault injector, the DRAM open rows an
/// install leaves and tab9's tag hit rate all see that order, so host-side
/// work may change only between those calls. The scalar paths allocate
/// nothing once warm: every tag, leaf, node digest and nonce is an inline
/// `digest`, both on-chip caches are one FIFO ring type, and the tree
/// walks run in scratch sized at construction. node_digest() remembers,
/// per level, its last input and result, and returns the remembered
/// digest for a byte-equal input without hashing: host-side caching of a
/// pure function, which charges nothing and which no output can see.
class memory_authenticator {
 public:
  /// Tag-cache fill granule (mac): one external burst of packed tags.
  static constexpr std::size_t k_tag_line = 64;
  /// The hardware MAC/hash unit: fill latency and streaming rate.
  static constexpr cycles mac_startup = 10;
  static constexpr double mac_cycles_per_byte = 0.5;

  /// A tag, leaf, node digest or AREA nonce: the first tag_bytes bytes of
  /// an HMAC-SHA256, held inline and zero past tag_bytes.
  using digest = std::array<u8, 32>;

  /// \param lower external path for tag/node traffic; referenced, not owned.
  /// \param unit_bytes the owning context's data-unit size.
  /// \throws std::invalid_argument on mode==none, empty key, a misaligned
  ///         or empty window, a tag region overlapping the window,
  ///         out-of-range tag_bytes / tree_arity, a mac tag_bytes that does
  ///         not divide the tag line or a mac tag_base not aligned to it,
  ///         or versioned off outside mac.
  memory_authenticator(sim::memory_port& lower, auth_config cfg,
                       std::size_t unit_bytes);

  [[nodiscard]] auth_mode mode() const noexcept { return cfg_.mode; }
  [[nodiscard]] const auth_config& config() const noexcept { return cfg_; }
  [[nodiscard]] const auth_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Whether \p unit_addr (unit-aligned) falls inside the guarded window.
  [[nodiscard]] bool covers(addr_t unit_addr) const noexcept {
    return unit_addr >= cfg_.base && unit_addr < cfg_.limit;
  }

  /// Bring the authentication state in sync with the window's *current*
  /// external-memory content at the current versions: mac tags stored,
  /// tree rebuilt bottom-up, volatile caches dropped; nothing for area
  /// (the engine seals area units itself, it owns the cipher). Called at
  /// attach (all versions 0) and by an operator to re-provision a region
  /// after a detected tamper — it *trusts* whatever the chip holds now.
  void seal_from_memory();

  // --- mac / hash_tree: ciphertext-level hooks -----------------------------

  struct check_result {
    bool ok = true;
    cycles bus = 0;     ///< external cycles spent on tags / nodes
    cycles compute = 0; ///< MAC / hash unit cycles
  };

  /// Verify one fetched ciphertext unit (mac: tag compare through the tag
  /// cache; hash_tree: path walk to a trusted node or the root). Counts a
  /// fault on mismatch. \p charge gates cycle accounting only — the
  /// functional check always runs.
  [[nodiscard]] check_result verify_unit(addr_t unit_addr, std::span<const u8> ct,
                                         bool charge);

  /// Account a freshly stored ciphertext unit: bump the on-chip version
  /// (unless mac runs unversioned), recompute and store the tag (mac) or
  /// re-hash the path and the on-chip
  /// root (hash_tree — the stored path is authenticated first, and on a
  /// mismatch the update is *refused* (fail-stop): a tampered sibling must
  /// never be hashed into the new root, so the subtree stays unverifiable
  /// until the operator re-seals the region. The refusal counts a fault
  /// and returns ok=false). Returns cycles like verify_unit.
  [[nodiscard]] check_result update_unit(addr_t unit_addr, std::span<const u8> ct,
                                         bool charge);

  // --- mac: batched-pipeline protocol --------------------------------------
  // A batch path stages tag traffic into the same txn_batcher window as its
  // data, so tag fetches overlap data fetches bank-wise; the caller queues
  // the verify itself on its MAC lane, to run after arrival. The first
  // staging call of a window registers batch_flush_done() as the window's
  // flush-end hook.

  /// What a staged (batched) read needs to verify later: the version
  /// snapshot at staging order, and either the tag value (forwarded from a
  /// write staged earlier in the window, or a tag-cache hit) or the window
  /// index and buffer of its tag-line fetch (a miss).
  struct staged_verify {
    addr_t unit_addr = 0;
    u64 version = 0;
    digest tag{};            ///< forwarded or cached tag; valid on a hit only
    addr_t tag_line = 0;     ///< 64-byte-aligned line holding the tag
    std::size_t tag_off = 0; ///< this unit's tag offset inside that line
    /// Miss: the window index of the tag-line fetch (gate the verify on
    /// it) and its buffer. no_lower on a hit, which is what tells the two
    /// apart.
    std::size_t fetch = sim::txn_batcher::no_lower;
    std::span<const u8> fetched;
  };

  /// Stage the verify of one batched read of \p unit_addr. On a tag miss,
  /// queue the tag-line fetch on \p b as side traffic of \p master: one
  /// fetch per tag line per window, shared by every unit whose tag packs
  /// into it, and counted in tag_bus_reads.
  [[nodiscard]] staged_verify batch_prepare_verify(addr_t unit_addr, sim::txn_batcher& b,
                                                   sim::master_id master);

  /// Finish a staged verify once data (and, on a miss, the tag line) have
  /// arrived. A fetched line installs into the tag cache here, with every
  /// tag staged in the same window overlaid (the fetch was ordered before
  /// those writes).
  [[nodiscard]] check_result batch_finish_verify(const staged_verify& sv,
                                                 std::span<const u8> ct, bool charge);

  /// MAC-unit cycles to tag or verify one data unit — what the batch path
  /// charges per staged verify or update, known before the data arrives.
  [[nodiscard]] cycles unit_mac_cycles() const noexcept { return mac_time(unit_); }

  /// End of one flush window: staged-tag forwarding and the window's
  /// tag-line fetches are retired (everything is in DRAM and the cache by
  /// now).
  void batch_flush_done() noexcept {
    staged_tags_.clear();
    window_fetches_.clear();
    batch_open_ = false;
  }

  /// True between the first staged batch operation and batch_flush_done()
  /// — the window in which a reseal would race the in-flight tag traffic.
  [[nodiscard]] bool batch_open() const noexcept { return batch_open_; }

  /// Stage a (batched) write of ciphertext \p ct: bump the version (when
  /// versioned), compute the new tag, update the cache write-through, and
  /// queue the tag store on \p b as side traffic of \p master. Returns
  /// the MAC-unit cycles charged (0 unless \p charge).
  [[nodiscard]] cycles batch_stage_update(addr_t unit_addr, std::span<const u8> ct,
                                          bool charge, sim::txn_batcher& b,
                                          sim::master_id master);

  // --- area: payload-level hooks (the engine passes its leased cipher) -----
  // area_encipher, area_decipher and area_finish copy their input into the
  // expanded-payload scratch before writing any output, so one span may be
  // passed as both input and output (the engine seals and unseals in place).

  /// Stored bytes per unit under area: ceil(unit / (granule - tag_bytes))
  /// cipher blocks. The first unit_bytes go to DRAM at the unit's address
  /// (same beats as an unauthenticated store); the rest live in the
  /// widened-memory sideband.
  [[nodiscard]] std::size_t area_stored_bytes(std::size_t granule) const noexcept;

  /// Seal one unit: embed per-block nonces, encipher the expanded payload
  /// with \p kc, emit the DRAM-resident half into \p dram_ct (unit_bytes)
  /// and the expansion into the sideband. Bumps the version unless
  /// \p initial (the attach-time seal keeps version 0).
  [[nodiscard]] cycles area_encipher(keyed_cipher& kc, addr_t unit_addr,
                                     std::span<const u8> plain, std::span<u8> dram_ct,
                                     bool initial, bool charge);

  /// Unseal one unit: reassemble DRAM + sideband ciphertext, decipher,
  /// check every block's nonce slice, extract the data into \p plain_out.
  [[nodiscard]] check_result area_decipher(keyed_cipher& kc, addr_t unit_addr,
                                           std::span<const u8> dram_ct,
                                           std::span<u8> plain_out, bool charge);

  /// Bytes of one unit's area_prepare snapshot for units sealed through
  /// \p kc: be64(version), a sealed flag byte, then the sideband cells.
  [[nodiscard]] std::size_t area_snapshot_bytes(const keyed_cipher& kc) const noexcept;

  /// Snapshot of one unit's unseal inputs at batch *staging* order, into
  /// \p snap (area_snapshot_bytes long), so a caller can stage a window's
  /// snapshots back to back in one buffer. A later write of the same unit
  /// in the same batch bumps the live version and replaces the sideband,
  /// but the staged read's data arrives from before that write (functional
  /// order) — it must unseal against this snapshot, exactly as the mac
  /// path snapshots versions and forwards staged tags.
  void area_prepare(addr_t unit_addr, std::span<u8> snap) const;

  /// Cycles one unseal through \p kc costs (the expanded decipher plus the
  /// nonce checks) — what area_finish charges, known before the data arrives.
  [[nodiscard]] cycles area_unseal_cycles(const keyed_cipher& kc) const noexcept;

  /// area_decipher against an area_prepare snapshot (the batch post pass).
  [[nodiscard]] check_result area_finish(keyed_cipher& kc, addr_t unit_addr,
                                         std::span<const u8> dram_ct,
                                         std::span<u8> plain_out,
                                         std::span<const u8> snap, bool charge);

  // --- device lifecycle / attack-suite hooks -------------------------------

  /// Power cycle: the volatile on-chip caches vanish — including any batch
  /// forwarding window a cut left open mid-flush — while versions and the
  /// tree root survive (the design keeps them in on-chip NVM), which is
  /// exactly why replay fails even across a reset.
  void drop_caches() noexcept;

  /// Where the mac tag for \p unit_addr lives in external memory (a
  /// Class-II attacker reads the layout off the bus anyway).
  [[nodiscard]] addr_t tag_addr(addr_t unit_addr) const noexcept;

  /// hash_tree: external address of stored node (level, index); level 0 =
  /// leaves. The root is on-chip and has no address.
  [[nodiscard]] addr_t node_addr(unsigned level, u64 index) const noexcept;

  /// hash_tree: stored levels (root excluded) and total stored node count.
  [[nodiscard]] unsigned tree_levels() const noexcept {
    return static_cast<unsigned>(level_sizes_.size());
  }

  /// area: the widened-memory cells of one unit — tamperable external
  /// state, exposed so the attack suite can splice/replay them.
  [[nodiscard]] bytes* area_sideband(addr_t unit_addr) noexcept;

  /// External bytes dedicated to tags / stored tree nodes (0 for area,
  /// whose expansion is counted by area_stored_bytes).
  [[nodiscard]] std::size_t tag_memory_bytes() const noexcept;

  /// On-chip state: version RAM, caches, root (the silicon cost column).
  [[nodiscard]] std::size_t onchip_bytes() const noexcept;

  /// On-chip version RAM: 4 bytes per unit written so far.
  [[nodiscard]] std::size_t version_ram_bytes() const noexcept {
    return versions_.size() * 4;
  }

  [[nodiscard]] u64 version_of(addr_t unit_addr) const noexcept;

 private:
  using tag_line_bytes = std::array<u8, k_tag_line>;

  /// The on-chip caches: a fixed-capacity FIFO from a u64 key (tag-line
  /// base, or node_key(level, index)) to a value. Lookup is a linear probe
  /// over at most tag_cache_entries slots. An update in place keeps the
  /// entry's position; an insert into a full ring evicts the oldest
  /// insertion. Capacity 0 holds nothing, so a lookup always misses.
  template <class V>
  class fifo_ring {
   public:
    explicit fifo_ring(std::size_t capacity) : keys_(capacity), values_(capacity) {}

    [[nodiscard]] V* find(u64 key) noexcept {
      for (std::size_t i = 0; i < size_; ++i)
        if (keys_[i] == key) return &values_[i];
      return nullptr;
    }
    void put(u64 key, const V& value) noexcept {
      if (V* v = find(key)) {
        *v = value;
        return;
      }
      if (keys_.empty()) return;
      std::size_t slot = size_;
      if (size_ < keys_.size()) {
        ++size_;
      } else { // full: the slot after the last eviction holds the oldest
        slot = oldest_;
        oldest_ = oldest_ + 1 == keys_.size() ? 0 : oldest_ + 1;
      }
      keys_[slot] = key;
      values_[slot] = value;
    }
    void clear() noexcept { size_ = oldest_ = 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    std::vector<u64> keys_;
    std::vector<V> values_;
    std::size_t size_ = 0;   ///< live slots are [0, size_)
    std::size_t oldest_ = 0; ///< once full: the slot the next insert evicts
  };

  [[nodiscard]] static constexpr cycles mac_time(std::size_t nbytes) noexcept {
    return mac_startup +
           static_cast<cycles>(static_cast<double>(nbytes) * mac_cycles_per_byte);
  }
  [[nodiscard]] u64 unit_index(addr_t unit_addr) const noexcept {
    return (unit_addr - cfg_.base) / unit_;
  }
  void note(check_result& r, bool charge) noexcept;

  /// HMAC over head || body, truncated to tag_bytes.
  [[nodiscard]] digest keyed_digest(std::span<const u8> head,
                                    std::span<const u8> body = {}) const noexcept;
  [[nodiscard]] std::span<const u8> view(const digest& d) const noexcept {
    return {d.data(), cfg_.tag_bytes};
  }
  [[nodiscard]] bool same(const digest& a, const digest& b) const noexcept;

  // mac helpers.
  [[nodiscard]] digest unit_tag(addr_t unit_addr, u64 version,
                                std::span<const u8> ct) const noexcept;
  /// Read the tag through the cache; returns bus cycles (0 on a hit).
  [[nodiscard]] cycles fetch_tag(addr_t unit_addr, std::span<u8> out);
  [[nodiscard]] cycles store_tag(addr_t unit_addr, const digest& tag);
  /// Open a batch window on \p b, if none is open.
  void open_window(sim::txn_batcher& b);

  // hash_tree helpers.
  /// The sibling group holding node (level, index): its first index and
  /// its digests in the walk scratch, tag_bytes each.
  struct sibling_group {
    u64 first = 0;
    std::span<u8> children;
  };
  [[nodiscard]] sibling_group group_of(unsigned level, u64 index) noexcept;
  [[nodiscard]] digest leaf_digest(u64 index, std::span<const u8> ct) const noexcept;
  [[nodiscard]] digest node_digest(unsigned level, u64 index,
                                   std::span<const u8> children) noexcept;
  /// Read stored node (level, index) through the node cache into \p out
  /// (tag_bytes).
  void read_node(unsigned level, u64 index, u8* out, cycles& bus);
  void write_node(unsigned level, u64 index, const digest& d, cycles& bus);
  // area helpers.
  [[nodiscard]] digest area_nonce(addr_t unit_addr, u64 version,
                                  std::size_t block) const noexcept;
  /// Unseal against \p version and \p sideband (empty: never sealed).
  [[nodiscard]] check_result area_unseal(keyed_cipher& kc, addr_t unit_addr,
                                         std::span<const u8> dram_ct,
                                         std::span<u8> plain_out, u64 version,
                                         std::span<const u8> sideband, bool charge);

  sim::memory_port* lower_;
  auth_config cfg_;
  std::size_t unit_;
  /// cfg_.key absorbed once: every tag, leaf/node digest and AREA nonce
  /// resumes from its ipad/opad midstates.
  crypto::hmac_sha256_key mac_key_;

  std::unordered_map<addr_t, u64> versions_; ///< on-chip version RAM (NVM)

  // mac state.
  fifo_ring<tag_line_bytes> tag_cache_; ///< tag-line base -> 64 B
  /// Tags staged by the current flush window (tag addr -> value): later
  /// staged reads must see them even when the tag line is uncached, and a
  /// tag-line fetch ordered before the staged write must not install a
  /// stale line over them.
  std::unordered_map<addr_t, digest> staged_tags_;
  /// Tag lines the current window fetches: line -> (window index, buffer).
  std::unordered_map<addr_t, std::pair<std::size_t, std::span<const u8>>>
      window_fetches_;
  /// A batch path's flush window is staging against this authenticator; a
  /// reseal inside the window would clobber in-flight tag state.
  bool batch_open_ = false;

  // hash_tree state.
  std::vector<u64> level_sizes_;    ///< nodes per stored level, leaves first
  std::vector<addr_t> level_base_;  ///< external base address per level
  digest root_{};                   ///< on-chip root digest
  fifo_ring<digest> node_cache_;    ///< node_key(level, index) -> digest
  /// Walk scratch, sized at construction: one sibling group per stored
  /// level, packed at tag_bytes (an update walk keeps pass A's groups for
  /// pass B), and the verify walk's nodes to cache once it succeeds.
  bytes walk_children_;
  std::vector<std::pair<u64, digest>> walk_install_;
  /// node_digest's memo, by node level: the last input and its digest.
  struct memo_entry {
    u64 index = ~u64{0};
    std::size_t len = 0;
    std::array<u8, 8 * sizeof(digest)> children{}; ///< up to tree_arity (<= 8) digests
    digest d{};
  };
  std::vector<memo_entry> memo_;

  // area state: widened-memory expansion cells, by unit address, and the
  // expanded payload of the unit being sealed or unsealed.
  std::unordered_map<addr_t, bytes> sideband_;
  bytes area_scratch_;

  auth_stats stats_;
};

} // namespace buscrypt::engine
