#include "edu/block_edu.hpp"

#include "crypto/modes.hpp"
#include "sim/txn_batcher.hpp"

#include <functional>
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

void block_edu::crypt_range(addr_t addr, std::span<u8> buf, bool encrypt) {
  stats_.cipher_blocks += buf.size() / cipher_->block_size();
  if (cfg_.mode == block_mode::ecb) {
    if (encrypt) crypto::ecb_encrypt(*cipher_, buf, buf);
    else crypto::ecb_decrypt(*cipher_, buf, buf);
    return;
  }
  // IV = E(addr): unpredictable to the attacker, recomputable from the
  // address alone (no IV storage) — the AEGIS-style construction.
  for (std::size_t off = 0; off < buf.size(); off += granule_) {
    ++stats_.cipher_blocks; // the IV generation encryption
    const std::span<u8> chain = buf.subspan(off, granule_);
    if (encrypt) crypto::cbc_encrypt_at(*cipher_, addr + off, 0, chain);
    else crypto::cbc_decrypt_at(*cipher_, addr + off, 0, chain);
  }
}

cycles block_edu::crypt_time(std::size_t nbytes, bool encrypt) const noexcept {
  const std::size_t nblocks = cfg_.core.blocks_for(nbytes);
  // ECB and CBC-decrypt are block-parallel, so a pipelined core streams
  // them (IV derivation overlaps the fetch: the address is known at
  // request); CBC encryption is serial within a chain, so the pipeline
  // drains each block.
  return encrypt && cfg_.mode == block_mode::cbc_line ? cfg_.core.time_chained(nblocks)
                                                      : cfg_.core.time_parallel(nblocks);
}

cycles block_edu::load(addr_t base, std::span<u8> cover) {
  const cycles mem = lower_->read(base, cover);
  crypt_range(base, cover, /*encrypt=*/false);
  const cycles crypt = crypt_time(cover.size(), /*encrypt=*/false);
  stats_.crypto_cycles += crypt;
  return mem + crypt;
}

cycles block_edu::store(addr_t base, std::span<u8> cover) {
  crypt_range(base, cover, /*encrypt=*/true);
  const cycles crypt = crypt_time(cover.size(), /*encrypt=*/true);
  stats_.crypto_cycles += crypt;
  return crypt + lower_->write(base, cover);
}

cycles block_edu::read(addr_t addr, std::span<u8> out) {
  ++stats_.reads;
  return read_cover(addr, out, granule_, std::bind_front(&block_edu::load, this));
}

void block_edu::submit(std::span<sim::mem_txn> batch) {
  note_batch(batch.size());
  sim::txn_batcher b(*lower_, pending_txn_cycles_, batch.size());
  for (sim::mem_txn& txn : batch) {
    b.begin_txn(txn);
    if (txn.data.empty() || !sim::whole_granules(txn.addr, txn.data.size(), granule_)) {
      b.detour_via(txn, *this);
      continue;
    }
    if (txn.is_write()) {
      ++stats_.writes;
      bytes& ct = b.scratch_copy(txn.data);
      crypt_range(txn.addr, ct, /*encrypt=*/true);
      const cycles enc = crypt_time(ct.size(), /*encrypt=*/true);
      stats_.crypto_cycles += enc;
      b.add_pre(enc);
      (void)b.queue(sim::txn_op::write, txn.master, txn.addr, ct);
    } else {
      ++stats_.reads;
      const std::size_t li = b.queue(sim::txn_op::read, txn.master, txn.addr, txn.data);
      const cycles dec = crypt_time(txn.data.size(), /*encrypt=*/false);
      stats_.crypto_cycles += dec;
      b.add_gated(li, sim::txn_batcher::no_lower, dec,
                  [this, addr = txn.addr, data = txn.data] {
                    crypt_range(addr, data, /*encrypt=*/false);
                  });
    }
  }
  b.flush();
  pending_txn_cycles_ += b.clock();
}

cycles block_edu::write(addr_t addr, std::span<const u8> in) {
  ++stats_.writes;
  return write_cover(addr, in, granule_, std::bind_front(&block_edu::load, this),
                     std::bind_front(&block_edu::store, this));
}

} // namespace buscrypt::edu
