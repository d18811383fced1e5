#include "edu/compress_edu.hpp"

#include "sim/txn_batcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::edu {

compress_edu::compress_edu(sim::memory_port& lower, const crypto::block_cipher& prf,
                           compress_edu_config cfg)
    : edu(lower), pad_(prf, tweak), cfg_(cfg), engine_(cfg.group_bytes) {}

bool compress_edu::in_code(addr_t addr, std::size_t len) const noexcept {
  return code_installed_ && addr >= code_base_ &&
         addr + len <= code_base_ + code_size_;
}

void compress_edu::install_code(addr_t base, std::span<const u8> code) {
  if (code_installed_) throw std::logic_error("compress_edu: code already installed");
  bytes padded(code.begin(), code.end());
  while (padded.size() % 4 != 0) padded.push_back(0);

  image_ = engine_.compress_image(padded);
  code_base_ = base;
  code_size_ = code.size();

  // Pack groups back-to-back in external memory starting at the code base.
  group_extent_.clear();
  addr_t phys = base;
  for (std::size_t g = 0; g < image_.group_bit_offsets.size(); ++g) {
    const std::size_t start_bit = image_.group_bit_offsets[g];
    const std::size_t end_bit = (g + 1 < image_.group_bit_offsets.size())
                                    ? image_.group_bit_offsets[g + 1]
                                    : image_.payload.size() * 8;
    const std::size_t start_byte = start_bit / 8;
    const std::size_t end_byte = (end_bit + 7) / 8;
    const std::size_t len = end_byte - start_byte;

    bytes chunk(image_.payload.begin() + static_cast<std::ptrdiff_t>(start_byte),
                image_.payload.begin() + static_cast<std::ptrdiff_t>(end_byte));
    pad_.apply(phys, chunk);
    (void)lower_->write(phys, chunk);
    group_extent_.emplace_back(static_cast<u32>(phys - base), static_cast<u32>(len));
    phys += len;
  }
  if (phys > base + code_size_)
    throw std::logic_error("compress_edu: image expanded beyond its region");
  code_installed_ = true;
}

void compress_edu::install_image(addr_t base, std::span<const u8> plain) {
  // Later regions are data: pad-encrypted, uncompressed.
  if (code_installed_) edu::install_image(base, plain);
  else install_code(base, plain);
}

void compress_edu::read_image(addr_t base, std::span<u8> plain_out) {
  sim::walk_granules(0, plain_out.size(), 32,
                     [&](addr_t off, std::size_t, std::size_t n, std::size_t) {
                       (void)read(base + off, plain_out.subspan(off, n));
                     });
}

compress_edu::code_group compress_edu::group_at(addr_t offset) const noexcept {
  const std::size_t g = static_cast<std::size_t>(offset) / image_.group_bytes;
  const auto [phys_off, len] = group_extent_[g];
  return {code_base_ + phys_off, len, image_.group_bit_offsets[g] % 8,
          std::min<std::size_t>(image_.group_bytes,
                                image_.original_size - g * image_.group_bytes)};
}

void compress_edu::decode_group(const code_group& grp, std::span<u8> chunk,
                                std::span<u8> plain) const {
  pad_.apply(grp.phys, chunk);
  engine_.decompress_chunk(chunk, grp.bit, plain, image_);
}

cycles compress_edu::read_code(addr_t addr, std::span<u8> out) {
  cycles total = 0;
  // Groups are laid out from the code base: walk the request's offsets.
  sim::walk_granules(
      addr - code_base_, out.size(), image_.group_bytes,
      [&](addr_t group_base, std::size_t in_group, std::size_t n, std::size_t done) {
        const code_group grp = group_at(group_base);
        // Fetch the *compressed* group: fewer bus beats than a raw line.
        sim::stack_window chunk(grp.len);
        const cycles mem = lower_->read(grp.phys, chunk.span());
        const std::size_t nblocks = pad_.blocks_covering(grp.phys, grp.len);
        stats_.cipher_blocks += nblocks;
        // The decompressor streams: it consumes beats as they arrive
        // (CodePack style), so only its drain beyond the transfer is exposed.
        const cycles mem_and_pad =
            std::max(mem, pad_core.time_parallel(nblocks)) + xor_cycles;

        // Stream the decrypted chunk straight into the decompressor, exactly
        // as the hardware fill path would.
        sim::stack_window plain(grp.plain_len);
        decode_group(grp, chunk.span(), plain.span());
        const cycles spent =
            std::max(mem_and_pad, decomp.latency_for(grp.plain_len)) + decomp.startup;
        stats_.crypto_cycles += spent - mem;

        std::ranges::copy(plain.span().subspan(in_group, n), out.begin() + done);
        total += spent;
      });
  return total;
}

cycles compress_edu::pad_io(addr_t addr, std::span<u8> buf, bool is_write,
                            std::span<const u8> wdata) {
  const std::size_t len = is_write ? wdata.size() : buf.size();
  const cycles pad_t = pad_core.time_parallel(pad_.blocks_covering(addr, len));
  stats_.cipher_blocks += pad_.blocks_covering(addr, len);
  cycles mem;
  if (is_write) {
    sim::stack_window ct(wdata);
    pad_.apply(addr, ct.span());
    mem = lower_->write(addr, ct.span());
  } else {
    mem = lower_->read(addr, buf);
    pad_.apply(addr, buf);
  }
  const cycles total = std::max(mem, pad_t) + xor_cycles;
  stats_.crypto_cycles += total - mem;
  return total;
}

void compress_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  // The decompressor keeps its group state hot across one window: only the
  // first group in each window pays the fill latency.
  u64 warm_window = static_cast<u64>(-1);

  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    const bool code = in_code(txn.addr, txn.data.size());
    const bool code_overlap = code_installed_ && txn.addr < code_base_ + code_size_ &&
                              txn.addr + txn.data.size() > code_base_;
    // Native: data txns, and whole-in-code reads. Straddles and code
    // writes (read-only region: the scalar path's error applies) detour in
    // order.
    if ((code_overlap && !code) || (code && txn.is_write())) {
      b.detour_via(txn, *this);
      continue;
    }
    if (txn.is_write()) ++stats_.writes;
    else ++stats_.reads;
    if (!code) {
      // Data region: the pad-overlap path.
      const std::size_t nblocks = pad_.blocks_covering(txn.addr, txn.data.size());
      const cycles pad_t = pad_core.time_parallel(nblocks);
      stats_.cipher_blocks += nblocks;
      stats_.crypto_cycles += xor_cycles;
      if (txn.is_write()) {
        bytes& ct = b.scratch_copy(txn.data);
        pad_.apply(txn.addr, ct);
        b.add_par(sim::txn_batcher::no_lower, pad_t, xor_cycles);
        (void)b.queue(sim::txn_op::write, txn.master, txn.addr, ct);
      } else {
        const std::size_t li = b.queue(sim::txn_op::read, txn.master, txn.addr, txn.data);
        b.add_par(li, pad_t, xor_cycles, [this, addr = txn.addr, data = txn.data] {
          pad_.apply(addr, data);
        });
      }
      continue;
    }
    // Code region read: group-by-group compressed fetches.
    sim::walk_granules(
        txn.addr - code_base_, txn.data.size(), image_.group_bytes,
        [&](addr_t group_base, std::size_t in_group, std::size_t n, std::size_t done) {
          const code_group grp = group_at(group_base);
          bytes& chunk = b.scratch(grp.len);
          const std::size_t li = b.queue(sim::txn_op::read, txn.master, grp.phys, chunk);
          const std::size_t nblocks = pad_.blocks_covering(grp.phys, grp.len);
          stats_.cipher_blocks += nblocks;
          stats_.crypto_cycles += xor_cycles;
          b.add_par(li, pad_core.time_parallel(nblocks), xor_cycles);
          const bool first_in_window = warm_window != b.flush_seq();
          warm_window = b.flush_seq();
          const cycles decomp_t = decomp.latency_for(grp.plain_len) +
                                  (first_in_window ? decomp.startup : 0);
          stats_.crypto_cycles += decomp_t;
          b.add_gated(li, sim::txn_batcher::no_lower, decomp_t,
                      [this, grp, &chunk, in_group, out = txn.data.subspan(done, n)] {
                        sim::stack_window plain(grp.plain_len);
                        decode_group(grp, chunk, plain.span());
                        std::ranges::copy(plain.span().subspan(in_group, out.size()),
                                          out.begin());
                      });
        });
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles compress_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  if (in_code(addr, out.size())) return read_code(addr, out);
  return pad_io(addr, out, /*is_write=*/false, {});
}

cycles compress_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  if (in_code(addr, in.size()))
    throw std::logic_error("compress_edu: code region is read-only");
  return pad_io(addr, {}, /*is_write=*/true, in);
}

} // namespace buscrypt::edu
