#pragma once
/// \file modes.hpp
/// Block-cipher modes of operation discussed in Section 2.2:
///   - ECB: "a same data will be ciphered to the same value; which is the
///     main security weakness of that mode";
///   - CBC: "improved security ... [but] limited in a processor-memory
///     system due to the random data access problem (JUMP instructions)";
///   - CTR: the seekable mode the AEGIS IV discussion gestures at — we
///     include it because it is what makes the stream-EDU random-access.
/// Every address-derived input the engines feed the cipher is one
/// counter_block: CTR's counter blocks, address_pad's pads (the stream
/// EDUs' seekable one-time pad) and the IVs of cbc_encrypt_at /
/// cbc_decrypt_at (the per-line, per-segment and per-page CBC engines).
/// Every CBC pass, whatever its IV scheme, is one heap-free
/// cbc_encrypt_chains / cbc_decrypt_chains call, and every CTR keystream
/// (ctr_crypt, ctr_crypt_units, address_pad) one heap-free windowed pass
/// of bulk encrypt_blocks calls.

#include "common/bitops.hpp"
#include "crypto/block_cipher.hpp"

#include <algorithm>

namespace buscrypt::crypto {

/// Widest cipher block the on-stack counter, IV and pad blocks hold.
inline constexpr std::size_t max_block = 16;

/// The one counter-block layout: be64(hi) || be64(lo) in a 16-byte block,
/// be64(hi ^ lo) in an 8-byte one (block.size() >= 8). CTR puts its nonce
/// in hi and its block counter in lo; the address-derived pads and IVs put
/// the address (alone or XORed with a per-engine tweak) in one half and a
/// tweak, nonce, version or 0 in the other. The 8-byte fold keeps distinct
/// inputs apart only while one half is fixed per key (a tweak, CTR's
/// nonce, or 0); the AEGIS and integrity EDUs, whose two halves both vary,
/// accept only 16-byte ciphers.
inline void counter_block(std::span<u8> block, u64 hi, u64 lo) noexcept {
  std::fill(block.begin(), block.end(), u8{0});
  if (block.size() >= 16) {
    store_be64(block.data(), hi);
    store_be64(block.data() + block.size() - 8, lo);
  } else {
    store_be64(block.data(), hi ^ lo);
  }
}

/// ECB: each block enciphered independently. Data length must be a
/// multiple of the cipher block size.
void ecb_encrypt(const block_cipher& c, std::span<const u8> in, std::span<u8> out);
void ecb_decrypt(const block_cipher& c, std::span<const u8> in, std::span<u8> out);

/// CBC in place over consecutive chains of \p chain_len bytes, chain k
/// under the IV block at ivs[k * block_size()]: the one CBC routine behind
/// the survey's line, segment and page chains and the engine's data units.
/// Decryption sends each window of up to 4 KiB through one decrypt_blocks
/// call (3DES reaches its bitsliced lanes) from an on-stack copy of its
/// ciphertext. No heap allocation.
/// \throws std::invalid_argument when the cipher's block is wider than
///         max_block, buf is not whole chains of whole blocks, or ivs does
///         not hold one block per chain.
void cbc_encrypt_chains(const block_cipher& c, std::span<const u8> ivs, std::span<u8> buf,
                        std::size_t chain_len);
void cbc_decrypt_chains(const block_cipher& c, std::span<const u8> ivs, std::span<u8> buf,
                        std::size_t chain_len);

/// CBC with explicit IV (iv.size() == block size). The whole buffer is one
/// chain; random access into the result requires deciphering from the IV —
/// exactly the JUMP-instruction problem the paper describes. in and out
/// may alias exactly. One cbc_*_chains call, so it throws as those do.
void cbc_encrypt(const block_cipher& c, std::span<const u8> iv,
                 std::span<const u8> in, std::span<u8> out);
void cbc_decrypt(const block_cipher& c, std::span<const u8> iv,
                 std::span<const u8> in, std::span<u8> out);

/// CBC in place over one chain under the address-derived IV
/// E_K(counter_block(hi, lo)), built on the stack: recomputable from the
/// address alone, so random access needs no IV storage.
/// \throws std::invalid_argument when the cipher's block is wider than
///         max_block or \p chain is not a block multiple.
void cbc_encrypt_at(const block_cipher& c, u64 hi, u64 lo, std::span<u8> chain);
void cbc_decrypt_at(const block_cipher& c, u64 hi, u64 lo, std::span<u8> chain);

/// CTR mode: pad block i = E_K(counter_block(nonce, initial_counter + i));
/// fully seekable, encrypt == decrypt. in and out may alias exactly. The
/// pads go through a 4 KiB stack window, one encrypt_blocks call per
/// window (3DES fills its widest bitsliced lane group); no heap allocation.
void ctr_crypt(const block_cipher& c, u64 nonce, u64 initial_counter,
               std::span<const u8> in, std::span<u8> out);

/// CTR over consecutive units of \p unit_len bytes (any length), unit u
/// under initial counter first_counter + u * counter_stride: the bytes of
/// one ctr_crypt call per unit, with the counter blocks of many units
/// sharing each window's encrypt_blocks call. The keyslot engine's CTR
/// backends run their data units through it.
/// \throws std::invalid_argument unless in and out match and hold whole
///         units.
void ctr_crypt_units(const block_cipher& c, u64 nonce, u64 first_counter,
                     u64 counter_stride, std::size_t unit_len, std::span<const u8> in,
                     std::span<u8> out);

/// PKCS#7 padding helpers for byte streams that are not block-multiple
/// (used by the Fig. 1 software-delivery protocol).
[[nodiscard]] bytes pkcs7_pad(std::span<const u8> in, std::size_t block);
[[nodiscard]] bytes pkcs7_unpad(std::span<const u8> in, std::size_t block);

/// Seekable pad generator: pad block i = E_K(counter_block(tweak, i)), the
/// hardware trick that lets a stream EDU start keystream generation from
/// the address alone, in parallel with the memory fetch (Section 2.2's
/// stream-cipher argument).
class address_pad {
 public:
  /// \param cipher block cipher used as the PRF; referenced, not owned.
  /// \param tweak  per-device constant, the hi half of every counter block.
  /// \throws std::invalid_argument when the cipher's block is wider than
  ///         max_block.
  address_pad(const block_cipher& cipher, u64 tweak) : cipher_(&cipher), tweak_(tweak) {
    if (cipher.block_size() > max_block)
      throw std::invalid_argument("address_pad: cipher block wider than max_block");
  }

  /// XOR the pad for byte-address \p addr into \p buf in place. The pad
  /// for a given address is stable across calls (deterministic), so
  /// write-back re-encryption reproduces it. Enciphers one counter block
  /// per block_size() bytes, aligned down to the enclosing pad block, all
  /// of them in one encrypt_blocks call per 4 KiB stack window, and makes
  /// no heap allocation.
  void apply(addr_t addr, std::span<u8> buf) const;

  /// Cipher invocations needed to cover \p len bytes starting at \p addr —
  /// the number the timing model charges for.
  [[nodiscard]] std::size_t blocks_covering(addr_t addr, std::size_t len) const noexcept;

 private:
  const block_cipher* cipher_;
  u64 tweak_;
};

} // namespace buscrypt::crypto
