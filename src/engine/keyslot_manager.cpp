#include "engine/keyslot_manager.hpp"

#include <stdexcept>
#include <utility>

namespace buscrypt::engine {

keyslot_manager::keyslot_manager(const backend_registry& registry, unsigned num_slots,
                                 slot_policy policy)
    : registry_(&registry), policy_(make_eviction_policy(policy, num_slots)) {
  if (num_slots == 0)
    throw std::invalid_argument("keyslot_manager: need at least one slot");
  slots_.resize(num_slots);
  views_.resize(num_slots);
}

int keyslot_manager::pick_victim() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    views_[i].programmed = slots_[i].key.has_value();
    views_[i].refcount = slots_[i].refcount;
    views_[i].last_use = slots_[i].last_use;
    views_[i].uses = slots_[i].uses;
  }
  const int v = policy_->pick_victim(views_);
  if (v == no_slot) return no_slot;
  if (v < 0 || static_cast<std::size_t>(v) >= slots_.size() ||
      slots_[static_cast<std::size_t>(v)].refcount != 0)
    throw std::logic_error("keyslot_manager: policy picked an invalid victim");
  return v;
}

int keyslot_manager::acquire(const keyslot_key& k) {
  ++tick_;
  ++stats_.acquires;
  stats_.occupancy_acc += programmed_; // pool state the request found

  // Hit: the key is already programmed somewhere.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].key && *slots_[i].key == k) {
      ++slots_[i].refcount;
      slots_[i].last_use = tick_;
      ++slots_[i].uses;
      ++stats_.hits;
      policy_->on_hit(i);
      return static_cast<int>(i);
    }
  }

  // Miss: the policy picks an empty slot or an idle victim.
  const int victim = pick_victim();
  if (victim == no_slot) {
    ++stats_.denials;
    return no_slot;
  }

  const auto i = static_cast<std::size_t>(victim);
  const bool displacing = slots_[i].key.has_value();
  program(i, k, /*pins=*/1);
  ++(displacing ? stats_.reprograms : stats_.cold_programs);

  if (policy_->wants_prefetch()) maybe_prefetch();
  return victim;
}

void keyslot_manager::program(std::size_t i, const keyslot_key& k, unsigned pins) {
  slot& s = slots_[i];
  std::unique_ptr<keyed_cipher> cipher = registry_->at(k.backend).make_keyed(k.key);
  if (s.key) {
    ++stats_.evictions;
    policy_->on_evict(i);
    note_victim(s);
  } else {
    ++programmed_;
  }
  s.cipher = std::move(cipher);
  s.key = k;
  s.refcount = pins;
  s.last_use = tick_;
  s.uses = 1;
  ++stats_.programs;
  policy_->on_program(i);
}

void keyslot_manager::note_victim(const slot& s) {
  if (!policy_->wants_prefetch()) return;
  if (s.uses < 2) return; // one-shot keys are not worth restoring
  for (auto it = victims_.begin(); it != victims_.end(); ++it) {
    if (it->key == *s.key) {
      victims_.erase(it);
      break;
    }
  }
  victims_.push_back({*s.key, s.uses});
  if (victims_.size() > slots_.size()) victims_.pop_front();
}

void keyslot_manager::maybe_prefetch() {
  // Candidate: the most recently displaced hot key not already back in a
  // slot (entries that returned on their own are dropped as seen).
  while (!victims_.empty()) {
    const keyslot_key& cand = victims_.back().key;
    bool programmed = false;
    for (const slot& s : slots_)
      if (s.key && *s.key == cand) {
        programmed = true;
        break;
      }
    if (!programmed) break;
    victims_.pop_back();
  }
  if (victims_.empty()) return;

  // Target: a cold idle slot — empty beats any displacement; otherwise an
  // idle one-shot slot (uses <= 1), oldest first. A slot that has proven
  // reuse is never sacrificed to speculation.
  int target = no_slot;
  u64 oldest = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const slot& s = slots_[i];
    if (s.refcount != 0) continue;
    if (!s.key) {
      target = static_cast<int>(i);
      break;
    }
    if (s.uses <= 1 && (target == no_slot || s.last_use < oldest)) {
      oldest = s.last_use;
      target = static_cast<int>(i);
    }
  }
  if (target == no_slot) return;

  const victim_entry entry = std::move(victims_.back());
  victims_.pop_back();

  // Programmed warm, not pinned: the next acquire hits. A target holding
  // a key has served at most one use, so note_victim ignores it.
  program(static_cast<std::size_t>(target), entry.key, /*pins=*/0);
  ++stats_.prefetch_programs;
}

void keyslot_manager::release(int slot_idx) {
  if (slot_idx < 0 || static_cast<std::size_t>(slot_idx) >= slots_.size())
    throw std::out_of_range("keyslot_manager::release: bad slot index");
  slot& s = slots_[static_cast<std::size_t>(slot_idx)];
  if (s.refcount == 0)
    throw std::logic_error("keyslot_manager::release: slot not acquired");
  --s.refcount;
}

bool keyslot_manager::evict(const keyslot_key& k) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slot& s = slots_[i];
    if (s.key && *s.key == k) {
      if (s.refcount != 0) return false;
      s.key.reset();
      s.cipher.reset();
      s.uses = 0;
      --programmed_;
      ++stats_.evictions;
      policy_->on_evict(i);
      // Session teardown: the key is dead, never worth prefetching back.
      for (auto it = victims_.begin(); it != victims_.end(); ++it)
        if (it->key == k) {
          victims_.erase(it);
          break;
        }
      return true;
    }
  }
  return false;
}

keyed_cipher& keyslot_manager::keyed(int slot_idx) {
  if (slot_idx < 0 || static_cast<std::size_t>(slot_idx) >= slots_.size())
    throw std::out_of_range("keyslot_manager::keyed: bad slot index");
  slot& s = slots_[static_cast<std::size_t>(slot_idx)];
  if (!s.cipher)
    throw std::logic_error("keyslot_manager::keyed: slot not programmed");
  return *s.cipher;
}

const keyslot_key* keyslot_manager::key_of(int slot_idx) const {
  if (slot_idx < 0 || static_cast<std::size_t>(slot_idx) >= slots_.size())
    return nullptr;
  const slot& s = slots_[static_cast<std::size_t>(slot_idx)];
  return s.key ? &*s.key : nullptr;
}

unsigned keyslot_manager::slots_in_use() const noexcept {
  unsigned n = 0;
  for (const auto& s : slots_)
    if (s.refcount != 0) ++n;
  return n;
}

} // namespace buscrypt::engine
