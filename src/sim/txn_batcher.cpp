#include "sim/txn_batcher.hpp"

#include <algorithm>

namespace buscrypt::sim {

void txn_batcher::flush() {
  if (!open()) return;

  cycles mem_span = 0;
  if (!lower_.empty()) {
    port_->submit(lower_);
    mem_span = port_->drain();
    lower_clock_ += mem_span;
  }
  auto arrival_of = [&](std::size_t li) -> cycles {
    return li == no_lower ? 0 : lower_[li].complete_cycle;
  };

  // Per-owner finishes, stamped in staging (= submission) order below.
  // Lower arrivals seed them so a pre-enciphered write completes with its
  // bus transfer.
  std::vector<std::pair<mem_txn*, cycles>> fins;
  fins.reserve(order_.size());
  for (mem_txn* t : order_) fins.emplace_back(t, 0);
  auto fin_of = [&](mem_txn* t) -> cycles& {
    for (auto& [owner, fin] : fins)
      if (owner == t) return fin;
    return fins.emplace_back(t, 0).second;
  };
  for (std::size_t i = 0; i < lower_.size(); ++i)
    if (owners_[i] != nullptr) {
      cycles& f = fin_of(owners_[i]);
      f = std::max(f, lower_[i].complete_cycle);
    }

  // The timing lanes. The serial core and the MAC unit start loaded with
  // their staged pre-window work; par work accumulates independently and
  // only its excess over the bus window surfaces in the makespan.
  cycles serial = pre_total_;
  cycles mac = mac_pre_total_;
  cycles par_prefix = 0;
  cycles tail_total = 0;
  for (job& j : jobs_) {
    if (j.fn) j.fn();
    const cycles arrival = std::max(arrival_of(j.li), arrival_of(j.li2));
    cycles fin = 0;
    switch (j.k) {
      case kind::par:
        par_prefix += j.c;
        tail_total += j.tail;
        fin = std::max(arrival, par_prefix) + j.tail;
        break;
      case kind::overlap:
        par_prefix += j.c;
        break;
      case kind::gated:
        serial = std::max(serial, arrival) + j.c;
        fin = serial;
        break;
      case kind::local:
        serial += j.c;
        fin = serial;
        break;
      case kind::mac:
        mac = std::max(mac, arrival) + j.c;
        fin = mac;
        break;
    }
    if (j.owner != nullptr) {
      cycles& f = fin_of(j.owner);
      f = std::max(f, fin);
    }
  }
  const cycles makespan = std::max({mem_span, par_prefix, serial, mac}) + tail_total;

  // In-order retirement: stamps are monotone in staging order and never
  // exceed the window makespan.
  cycles mono = 0;
  for (auto& [owner, fin] : fins) {
    mono = std::max(mono, fin);
    owner->complete_cycle = base_ + clock_ + mono;
  }
  clock_ += makespan;

  for (auto& fn : end_fns_) fn();

  lower_.clear();
  owners_.clear();
  order_.clear();
  jobs_.clear();
  end_fns_.clear();
  aux_.clear();
  pre_total_ = 0;
  mac_pre_total_ = 0;
  ++flush_seq_;
}

} // namespace buscrypt::sim
