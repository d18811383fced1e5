#include "edu/gilmont_edu.hpp"

#include "crypto/modes.hpp"
#include "sim/txn_batcher.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace buscrypt::edu {

gilmont_edu::gilmont_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
                         gilmont_edu_config cfg)
    : edu(lower), cipher_(&cipher), cfg_(cfg) {
  if (cfg_.line_bytes % cipher.block_size() != 0)
    throw std::invalid_argument("gilmont_edu: line must be a block multiple");
  pf_data_.resize(cfg_.line_bytes);
}

void gilmont_edu::crypt_line(std::span<u8> buf, bool encrypt) {
  if (!cfg_.encrypt) return; // prefetch-only baseline
  stats_.cipher_blocks += buf.size() / cipher_->block_size();
  if (encrypt)
    crypto::ecb_encrypt(*cipher_, buf, buf);
  else
    crypto::ecb_decrypt(*cipher_, buf, buf);
}

void gilmont_edu::prefetch(addr_t line_addr) {
  if (line_addr + cfg_.line_bytes > code_limit) {
    pf_valid_ = false;
    return;
  }
  // The prefetch read + decrypt happen in the background; its cycles do
  // not appear on the critical path (bus contention is the price).
  // Functional effect: the decrypted next line is staged.
  (void)lower_->read(line_addr, pf_data_);
  crypt_line(pf_data_, /*encrypt=*/false);
  pf_valid_ = true;
  pf_addr_ = line_addr;
}

cycles gilmont_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  // Data region: clear-form passthrough (the surveyed limitation).
  if (addr >= code_limit) return lower_->read(addr, out);

  const std::size_t lb = cfg_.line_bytes;
  if (out.size() != lb || !sim::whole_granules(addr, out.size(), lb)) {
    // Split to line-aligned requests, each through read().
    return read_cover(addr, out, lb, [this, lb](addr_t base, std::span<u8> cover) {
      return per_granule(base, cover, lb, std::bind_front(&gilmont_edu::read, this));
    });
  }

  if (pf_valid_ && pf_addr_ == addr) {
    // Predicted correctly: the line is already fetched AND deciphered.
    ++prefetch_hits_;
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = pf_data_[i];
    pf_valid_ = false;
    prefetch(addr + cfg_.line_bytes);
    return 1;
  }

  ++prefetch_misses_;
  const cycles mem = lower_->read(addr, out);
  crypt_line(out, /*encrypt=*/false);
  const cycles crypt = crypt_time(out.size());
  stats_.crypto_cycles += crypt;
  prefetch(addr + cfg_.line_bytes);
  return mem + crypt;
}

void gilmont_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  const std::size_t lb = cfg_.line_bytes;

  // Window view of the one-deep prefetch buffer. Each background fetch
  // executes as an uncharged zero-cycle retirement job: after the window's
  // demand traffic has drained (the prefetcher yields the bus to demand
  // fetches) but before any later hit's copy-out that depends on it. Its
  // cycles stay off the critical path, exactly as the scalar model's
  // fire-and-forget read; wpf_buf points at the staged fill until the
  // flush hook commits the last one into pf_data_.
  bool wpf_valid = pf_valid_;
  addr_t wpf_addr = pf_addr_;
  bytes* wpf_buf = nullptr; // null = pf_data_ holds settled data
  bool hooked = false;
  auto hook = [&] {
    if (hooked) return;
    hooked = true;
    b.at_flush_end([&] {
      if (wpf_buf != nullptr)
        std::copy(wpf_buf->begin(), wpf_buf->end(), pf_data_.begin());
      pf_valid_ = wpf_valid;
      pf_addr_ = wpf_addr;
      wpf_buf = nullptr;
      hooked = false;
    });
  };
  auto prefetch_native = [&](addr_t line_addr) {
    hook();
    if (line_addr + lb > code_limit) {
      wpf_valid = false;
      return;
    }
    bytes& buf = b.scratch(lb);
    b.add_local(0, [this, &buf, line_addr] {
      (void)lower_->read(line_addr, buf);
      crypt_line(buf, /*encrypt=*/false);
    });
    wpf_valid = true;
    wpf_addr = line_addr;
    wpf_buf = &buf;
  };

  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    if (txn.addr >= code_limit) { // clear-form data passthrough
      if (txn.is_write()) ++stats_.writes;
      else ++stats_.reads;
      (void)b.queue(txn.op, txn.master, txn.addr, txn.data);
      continue;
    }
    // Native: data-region txns (either direction, above) and line-aligned
    // code-region reads. Everything else — code writes (they must
    // invalidate the prefetch buffer before any later fetch), unaligned
    // code reads, boundary straddles — detours in order.
    if (txn.is_write() || !sim::whole_granules(txn.addr, txn.data.size(), lb) ||
        txn.data.empty() || txn.addr + txn.data.size() > code_limit) {
      // The flush inside commits the window's prefetch state into
      // pf_data_; the scalar detour may then move the predictor, so
      // resynchronise the window view afterwards.
      b.detour_via(txn, *this);
      wpf_valid = pf_valid_;
      wpf_addr = pf_addr_;
      wpf_buf = nullptr;
      continue;
    }
    for (std::size_t off = 0; off < txn.data.size(); off += lb) {
      const addr_t a = txn.addr + off;
      std::span<u8> line = txn.data.subspan(off, lb);
      ++stats_.reads;
      if (wpf_valid && wpf_addr == a) {
        // Predicted: the line is fetched (or in flight in this very
        // window) and deciphered by retirement. The copy-out runs at
        // retirement too — the destination span may double as an
        // earlier queued write's source (the cache's evict/fill pair
        // reuses one line buffer).
        ++prefetch_hits_;
        bytes* src = wpf_buf;
        if (src == nullptr) src = &b.scratch_copy(pf_data_);
        b.add_local(1,
                    [line, src] { std::copy(src->begin(), src->end(), line.begin()); });
        wpf_valid = false;
        prefetch_native(a + lb);
        continue;
      }
      ++prefetch_misses_;
      const std::size_t li = b.queue(sim::txn_op::read, txn.master, a, line);
      const cycles crypt = crypt_time(lb);
      stats_.crypto_cycles += crypt;
      b.add_gated(li, sim::txn_batcher::no_lower, crypt,
                  [this, line] { crypt_line(line, /*encrypt=*/false); });
      prefetch_native(a + lb);
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles gilmont_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  if (addr >= code_limit) return lower_->write(addr, in); // data: clear form

  // Static code is installed through the cipher; runtime code writes are
  // rare (self-modifying code) but handled: line-aligned encrypt, with the
  // five-step penalty for partial lines.
  const std::size_t lb = cfg_.line_bytes;
  // Invalidate the prefetch buffer if any written line overlaps it.
  const sim::granule_cover c = sim::cover_of(addr, in.size(), lb);
  if (pf_valid_ && c.base < pf_addr_ + lb && pf_addr_ < c.base + c.len) pf_valid_ = false;

  return write_cover(
      addr, in, lb,
      [this](addr_t base, std::span<u8> cover) {
        const cycles mem = lower_->read(base, cover);
        crypt_line(cover, /*encrypt=*/false);
        const cycles crypt = crypt_time(cover.size());
        stats_.crypto_cycles += crypt;
        return mem + crypt;
      },
      [this](addr_t base, std::span<u8> cover) {
        crypt_line(cover, /*encrypt=*/true);
        const cycles crypt = crypt_time(cover.size());
        stats_.crypto_cycles += crypt;
        return crypt + lower_->write(base, cover);
      });
}

} // namespace buscrypt::edu
