#include "edu/block_edu.hpp"

#include "crypto/modes.hpp"
#include "sim/txn_batcher.hpp"

#include <stdexcept>

namespace buscrypt::edu {

block_edu::block_edu(sim::memory_port& lower, const crypto::block_cipher& cipher,
                     block_edu_config cfg)
    : edu(lower), cipher_(&cipher), cfg_(cfg) {
  if (cipher.block_size() != cfg_.core.block_bytes)
    throw std::invalid_argument("block_edu: cipher block size != core model block size");
  if (cfg_.mode == block_mode::cbc_line) {
    if (cfg_.chain_bytes % cipher.block_size() != 0 || cfg_.chain_bytes == 0)
      throw std::invalid_argument("block_edu: chain_bytes must be a block multiple");
    granule_ = cfg_.chain_bytes;
  } else {
    granule_ = cipher.block_size();
  }
  name_ = std::string(cipher.name()) +
          (cfg_.mode == block_mode::ecb ? "-ECB" : "-CBCline");
}

std::string_view block_edu::name() const noexcept { return name_; }

void block_edu::encrypt_range(addr_t addr, std::span<u8> buf) {
  const std::size_t bs = cipher_->block_size();
  stats_.cipher_blocks += buf.size() / bs;
  if (cfg_.mode == block_mode::ecb) {
    crypto::ecb_encrypt(*cipher_, buf, buf);
    return;
  }
  // IV = E(addr): unpredictable to the attacker, recomputable from the
  // address alone (no IV storage) — the AEGIS-style construction.
  for (std::size_t off = 0; off < buf.size(); off += granule_) {
    ++stats_.cipher_blocks; // the IV generation encryption
    crypto::cbc_encrypt_at(*cipher_, addr + off, 0, buf.subspan(off, granule_));
  }
}

void block_edu::decrypt_range(addr_t addr, std::span<u8> buf) {
  const std::size_t bs = cipher_->block_size();
  stats_.cipher_blocks += buf.size() / bs;
  if (cfg_.mode == block_mode::ecb) {
    crypto::ecb_decrypt(*cipher_, buf, buf);
    return;
  }
  for (std::size_t off = 0; off < buf.size(); off += granule_) {
    ++stats_.cipher_blocks;
    crypto::cbc_decrypt_at(*cipher_, addr + off, 0, buf.subspan(off, granule_));
  }
}

cycles block_edu::decrypt_time(std::size_t nbytes) {
  // ECB and CBC-decrypt are block-parallel, so a pipelined core streams
  // them; IV derivation overlaps the fetch (address known at request).
  return cfg_.core.time_parallel(cfg_.core.blocks_for(nbytes));
}

cycles block_edu::encrypt_time(std::size_t nbytes) {
  const std::size_t nblocks = cfg_.core.blocks_for(nbytes);
  // CBC encryption is serial within a chain: the pipeline drains each block.
  return cfg_.mode == block_mode::cbc_line ? cfg_.core.time_chained(nblocks)
                                           : cfg_.core.time_parallel(nblocks);
}

cycles block_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  const addr_t start = addr - addr % granule_;
  const addr_t end_addr = addr + out.size();
  const addr_t end = (end_addr % granule_ == 0)
                         ? end_addr
                         : end_addr + granule_ - end_addr % granule_;
  const std::size_t span_len = static_cast<std::size_t>(end - start);

  bytes buf(span_len);
  const cycles mem = lower_->read(start, buf);
  decrypt_range(start, buf);
  const cycles crypt = decrypt_time(span_len);
  stats_.crypto_cycles += crypt;

  const std::size_t head = static_cast<std::size_t>(addr - start);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = buf[head + i];
  return mem + crypt;
}

void block_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    if (txn.data.empty() || txn.addr % granule_ != 0 || txn.data.size() % granule_ != 0) {
      b.detour_via(txn, *this);
      continue;
    }
    if (txn.is_write()) {
      ++stats_.writes;
      bytes& ct = b.scratch_copy(txn.data);
      encrypt_range(txn.addr, ct);
      const cycles enc = encrypt_time(ct.size());
      stats_.crypto_cycles += enc;
      b.add_pre(enc);
      (void)b.queue(sim::txn_op::write, txn.master, txn.addr, ct);
    } else {
      ++stats_.reads;
      const std::size_t li = b.queue(sim::txn_op::read, txn.master, txn.addr, txn.data);
      const cycles dec = decrypt_time(txn.data.size());
      stats_.crypto_cycles += dec;
      b.add_gated(li, sim::txn_batcher::no_lower, dec,
                  [this, addr = txn.addr, data = txn.data] {
                    decrypt_range(addr, data);
                  });
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles block_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  const addr_t start = addr - addr % granule_;
  const addr_t end_addr = addr + in.size();
  const addr_t end = (end_addr % granule_ == 0)
                         ? end_addr
                         : end_addr + granule_ - end_addr % granule_;
  const std::size_t span_len = static_cast<std::size_t>(end - start);

  cycles total = 0;
  bytes buf(span_len);
  if (span_len != in.size()) {
    // The paper's five-step sub-block write: read + decipher + modify +
    // re-cipher + write back.
    ++stats_.rmw_ops;
    total += lower_->read(start, buf);
    decrypt_range(start, buf);
    const cycles dec = decrypt_time(span_len);
    stats_.crypto_cycles += dec;
    total += dec;
  }
  const std::size_t head = static_cast<std::size_t>(addr - start);
  for (std::size_t i = 0; i < in.size(); ++i) buf[head + i] = in[i];

  encrypt_range(start, buf);
  const cycles enc = encrypt_time(span_len);
  stats_.crypto_cycles += enc;
  total += enc;
  total += lower_->write(start, buf);
  return total;
}

} // namespace buscrypt::edu
