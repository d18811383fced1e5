#include "edu/dma_edu.hpp"

#include "crypto/modes.hpp"
#include "sim/txn_batcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::edu {

dma_edu::dma_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
                 dma_edu_config cfg)
    : edu(lower), cipher_(&cipher), cfg_(cfg) {
  if (cfg_.page_bytes % cipher.block_size() != 0)
    throw std::invalid_argument("dma_edu: page must be a block multiple");
  if (cfg_.n_buffers == 0) throw std::invalid_argument("dma_edu: need >= 1 buffer");
  buffers_.resize(cfg_.n_buffers);
  for (auto& b : buffers_) b.data.resize(cfg_.page_bytes, 0);
}

void dma_edu::cipher_page(addr_t base, std::span<u8> buf, bool encrypt) {
  stats_.cipher_blocks += 1 + buf.size() / cipher_->block_size();
  if (encrypt)
    crypto::cbc_encrypt_at(*cipher_, iv_tweak ^ base, 0, buf);
  else
    crypto::cbc_decrypt_at(*cipher_, iv_tweak ^ base, 0, buf);
}

cycles dma_edu::encrypt_and_writeback(page_buffer& pb) {
  // Encrypt a copy: the resident buffer must keep serving plaintext.
  sim::stack_window ct(pb.data);
  cipher_page(pb.base, ct.span(), /*encrypt=*/true);
  // CBC encryption of the page is chained; DMA overlaps the bus transfer
  // with encryption of later blocks, so charge the longer of the two.
  const cycles crypt = core.time_chained(core.blocks_for(cfg_.page_bytes));
  const cycles mem = lower_->write(pb.base, ct.span());
  stats_.crypto_cycles += crypt;
  pb.dirty = false;
  return std::max(crypt, mem) + core.latency;
}

dma_edu::page_buffer* dma_edu::find_buffer(addr_t page_base) noexcept {
  for (auto& b : buffers_)
    if (b.valid && b.base == page_base) return &b;
  return nullptr;
}

dma_edu::page_buffer* dma_edu::pick_victim() noexcept {
  page_buffer* victim = &buffers_[0];
  for (auto& b : buffers_) {
    if (!b.valid) return &b;
    if (b.last_used < victim->last_used) victim = &b;
  }
  return victim;
}

std::pair<dma_edu::page_buffer*, cycles> dma_edu::fault_in(addr_t page_base) {
  if (page_buffer* hit = find_buffer(page_base)) {
    hit->last_used = ++tick_;
    return {hit, 0};
  }

  ++page_faults_;
  page_buffer* victim = pick_victim();

  cycles spent = 0;
  if (victim->valid && victim->dirty) spent += encrypt_and_writeback(*victim);

  const cycles mem = lower_->read(page_base, victim->data);
  cipher_page(page_base, victim->data, /*encrypt=*/false);
  // CBC decryption pipelines behind the incoming burst.
  const cycles crypt = core.time_parallel(core.blocks_for(cfg_.page_bytes));
  stats_.crypto_cycles += crypt;
  spent += std::max(mem, crypt) + core.latency;

  victim->valid = true;
  victim->dirty = false;
  victim->base = page_base;
  victim->last_used = ++tick_;
  return {victim, spent};
}

cycles dma_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  cycles total = 0;
  sim::walk_granules(
      addr, out.size(), cfg_.page_bytes,
      [&](addr_t base, std::size_t off, std::size_t n, std::size_t done) {
        auto [pb, spent] = fault_in(base);
        for (std::size_t i = 0; i < n; ++i) out[done + i] = pb->data[off + i];
        total += spent + sram_latency;
      });
  return total;
}

cycles dma_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  cycles total = 0;
  sim::walk_granules(
      addr, in.size(), cfg_.page_bytes,
      [&](addr_t base, std::size_t off, std::size_t n, std::size_t done) {
        auto [pb, spent] = fault_in(base);
        for (std::size_t i = 0; i < n; ++i) pb->data[off + i] = in[done + i];
        pb->dirty = true;
        total += spent + sram_latency;
      });
  return total;
}

void dma_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  const std::size_t nblocks = core.blocks_for(cfg_.page_bytes);
  // Buffers whose data is still in flight in the current window: a pending
  // fill or a store whose copy-in runs at window retirement. Evicting one
  // would encrypt unsettled bytes, so the window retires first.
  std::vector<page_buffer*> in_flight;
  const auto unsettled = [&](const page_buffer* pb) {
    return std::find(in_flight.begin(), in_flight.end(), pb) != in_flight.end();
  };

  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    if (txn.is_write()) ++stats_.writes;
    else ++stats_.reads;
    sim::walk_granules(
        txn.addr, txn.data.size(), cfg_.page_bytes,
        [&](addr_t base, std::size_t off, std::size_t n, std::size_t done) {
          page_buffer* pb = find_buffer(base);
          if (pb == nullptr) {
            ++page_faults_;
            pb = pick_victim();
            if (unsettled(pb)) {
              b.flush();
              in_flight.clear();
            }
            if (pb->valid && pb->dirty) {
              bytes& ct = b.scratch_copy(pb->data);
              cipher_page(pb->base, ct, /*encrypt=*/true);
              const cycles enc = core.time_chained(nblocks);
              stats_.crypto_cycles += enc;
              b.add_pre(enc + core.latency);
              (void)b.queue(sim::txn_op::write, txn.master, pb->base, ct);
              pb->dirty = false;
            }
            bytes& fill = b.scratch(cfg_.page_bytes);
            const std::size_t li = b.queue(sim::txn_op::read, txn.master, base, fill);
            // CBC decryption pipelines behind the incoming burst (the scalar
            // path's max(mem, crypt)): overlapped work, not arrival-gated.
            const cycles dec = core.time_parallel(nblocks);
            stats_.crypto_cycles += dec;
            b.add_par(li, dec, core.latency, [this, pb, &fill, base] {
              std::copy(fill.begin(), fill.end(), pb->data.begin());
              cipher_page(base, pb->data, /*encrypt=*/false);
            });
            pb->valid = true;
            pb->dirty = false;
            pb->base = base;
            in_flight.push_back(pb);
          }
          pb->last_used = ++tick_;

          // The access itself: SRAM-latency on-chip work; the data movement
          // runs at retirement, after any fill for this page has landed.
          if (txn.is_write()) {
            pb->dirty = true;
            if (!unsettled(pb)) in_flight.push_back(pb);
            b.add_local(sram_latency,
                        [pb, off, src = std::span<const u8>(txn.data.subspan(done, n))] {
                          std::copy(src.begin(), src.end(),
                                    pb->data.begin() + static_cast<std::ptrdiff_t>(off));
                        });
          } else {
            b.add_local(sram_latency, [pb, off, dst = txn.data.subspan(done, n)] {
              std::copy_n(pb->data.begin() + static_cast<std::ptrdiff_t>(off), dst.size(),
                          dst.begin());
            });
          }
        });
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles dma_edu::flush() {
  cycles total = 0;
  for (auto& b : buffers_)
    if (b.valid && b.dirty) total += encrypt_and_writeback(b);
  return total;
}

} // namespace buscrypt::edu
