#include "sim/firewall.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::sim {

bus_firewall::port* bus_firewall::find(master_id m) noexcept {
  for (port& p : ports_)
    if (p.id == m) return &p;
  return nullptr;
}

const bus_firewall::port* bus_firewall::find(master_id m) const noexcept {
  for (const port& p : ports_)
    if (p.id == m) return &p;
  return nullptr;
}

void bus_firewall::validate(master_id m, const std::vector<firewall_rule>& table) {
  if (m == any_master)
    throw std::invalid_argument("bus_firewall: master id is the reserved "
                                "any_master sentinel");
  for (const firewall_rule& r : table)
    if (r.len == 0)
      throw std::invalid_argument("bus_firewall: rule len must be >= 1");
}

void bus_firewall::install(master_id m, std::vector<firewall_rule> table) {
  ++reprograms_;
  if (port* p = find(m)) {
    p->table = std::move(table);
    p->st.rules.assign(p->table.size(), fw_rule_stats{});
    return;
  }
  port p;
  p.id = m;
  p.table = std::move(table);
  p.st.rules.assign(p.table.size(), fw_rule_stats{});
  ports_.push_back(std::move(p));
}

void bus_firewall::program(master_id m, std::vector<firewall_rule> table) {
  validate(m, table);
  install(m, std::move(table));
}

void bus_firewall::stage(master_id m, std::vector<firewall_rule> table) {
  validate(m, table);
  for (auto& [id, t] : staged_)
    if (id == m) {
      t = std::move(table);
      return;
    }
  staged_.emplace_back(m, std::move(table));
}

std::size_t bus_firewall::commit() {
  const std::size_t n = staged_.size();
  for (auto& [id, table] : staged_) install(id, std::move(table));
  staged_.clear();
  return n;
}

void bus_firewall::clear(master_id m) noexcept {
  for (std::size_t i = 0; i < ports_.size(); ++i)
    if (ports_[i].id == m) {
      ports_.erase(ports_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
}

bool bus_firewall::has_table(master_id m) const noexcept { return find(m) != nullptr; }

bool bus_firewall::any_table() const noexcept { return !ports_.empty(); }

const std::vector<firewall_rule>* bus_firewall::table(master_id m) const noexcept {
  const port* p = find(m);
  return p == nullptr ? nullptr : &p->table;
}

fw_span bus_firewall::peek(master_id m, addr_t addr, std::size_t len,
                           bool is_write) const noexcept {
  fw_span out;
  out.len = len;
  if (m == any_master) {
    // The forged sentinel is denied whole: it names "every master" in
    // scope selectors, so no rule table can vouch for it as a requester.
    out.allowed = false;
    return out;
  }
  const port* p = find(m);
  if (p == nullptr) return out; // open port: no table, full access
  // First matching rule wins at addr; the uniform prefix ends where the
  // deciding rule ends or where any higher-priority (earlier) rule starts
  // — beyond that point a different rule would decide.
  const std::vector<firewall_rule>& t = p->table;
  std::size_t win = t.size();
  for (std::size_t i = 0; i < t.size(); ++i)
    if (addr >= t[i].base && addr - t[i].base < t[i].len) {
      win = i;
      break;
    }
  addr_t end = addr + len;
  if (win != t.size()) {
    const firewall_rule& r = t[win];
    out.rule = static_cast<int>(win);
    out.allowed = is_write ? (r.perm == fw_perm::w || r.perm == fw_perm::rw)
                           : (r.perm == fw_perm::r || r.perm == fw_perm::rw);
    end = std::min<addr_t>(end, r.base + r.len);
    for (std::size_t j = 0; j < win; ++j)
      if (t[j].base > addr && t[j].base < end) end = t[j].base;
  } else {
    // No rule matched: a programmed port is a whitelist, so default-deny,
    // but only up to the first point where some rule starts to match.
    out.allowed = false;
    for (const firewall_rule& r : t)
      if (r.base > addr && r.base < end) end = r.base;
  }
  out.len = static_cast<std::size_t>(end - addr);
  return out;
}

fw_span bus_firewall::check(master_id m, addr_t addr, std::size_t len, bool is_write) {
  const fw_span s = peek(m, addr, len, is_write);
  if (m == any_master) {
    ++sentinel_denials_;
    return s;
  }
  port* p = find(m);
  if (p == nullptr) return s;
  ++p->st.checks;
  if (s.rule >= 0) {
    fw_rule_stats& rs = p->st.rules[static_cast<std::size_t>(s.rule)];
    if (s.allowed) ++rs.hits;
    else ++rs.denies;
  }
  if (!s.allowed) ++p->st.denies;
  return s;
}

fw_master_stats bus_firewall::stats(master_id m) const {
  const port* p = find(m);
  return p == nullptr ? fw_master_stats{} : p->st;
}

} // namespace buscrypt::sim
