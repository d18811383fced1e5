#pragma once
/// \file plain_edu.hpp
/// The no-protection baseline: data crosses the bus in clear form — the
/// situation Section 1 describes ("data and instructions are constantly
/// exchanged ... in clear form on the bus"). Every overhead in the benches
/// is measured against this.

#include "edu/edu.hpp"

namespace buscrypt::edu {

/// Pass-through EDU: zero added latency, identity transform.
class plain_edu final : public edu {
 public:
  using edu::edu;

  [[nodiscard]] std::string_view name() const noexcept override { return "plaintext"; }

  [[nodiscard]] cycles read(addr_t addr, std::span<u8> out) override {
    ++stats_.reads;
    return lower_->read(addr, out);
  }

  [[nodiscard]] cycles write(addr_t addr, std::span<const u8> in) override {
    ++stats_.writes;
    return lower_->write(addr, in);
  }

  /// A wire has nothing to serialise: hand the batch straight to the lower
  /// level so multi-bank overlap reaches the unprotected baseline too.
  void submit(std::span<sim::mem_txn> batch) override {
    note_batch(batch.size());
    for (const sim::mem_txn& txn : batch) {
      if (txn.is_write()) ++stats_.writes;
      else ++stats_.reads;
    }
    lower_->submit(batch);
  }
  [[nodiscard]] cycles drain() override { return lower_->drain(); }
};

} // namespace buscrypt::edu
