#pragma once
/// \file mac.hpp
/// Message authentication: HMAC-SHA256 (RFC 2104) and block-cipher CBC-MAC.
/// The General Instrument engine (Fig. 5) "offer[s] the possibility to
/// authenticate the data coming from external memory thanks to a keyed hash
/// algorithm" — gi_edu uses these as that keyed hash.

#include "crypto/block_cipher.hpp"
#include "crypto/sha256.hpp"

#include <array>

namespace buscrypt::crypto {

/// HMAC-SHA256 with the key absorbed once. The ipad and opad key blocks
/// are hashed at construction and kept as two SHA-256 midstates, so each
/// MAC only hashes the message and the inner digest.
///
/// A message (head + body) of at most 55 bytes fits one padded block, and
/// mac() pads it on the stack and hands both midstates to one kernel
/// (sha256_kernels::hmac_block_active) for the two remaining compressions:
/// on SHA-NI the state stays in registers between them. That covers the
/// per-line traffic: mac-scheme unit tags (a 16-byte address/version
/// header and a 32-byte unit), hash-tree leaves, arity-2 nodes with short
/// tags, AREA nonces and the update journal's record MACs. Longer messages
/// (update chunks, manifests, GI segments) stream through
/// sha256::update/digest. Both paths give the same RFC 2104 value. This is
/// the one HMAC implementation; hmac_sha256() / hmac_sha256_tag() and
/// tag() wrap mac(). Immutable after construction; safe to share across
/// threads.
class hmac_sha256_key {
 public:
  /// Longest message (head + body) that takes the one-block path.
  static constexpr std::size_t one_block_max = sha256::block_size - 9;

  /// \param key any length (longer than 64 bytes is hashed first).
  explicit hmac_sha256_key(std::span<const u8> key) noexcept;

  /// HMAC over \p head || \p body, without materialising the concatenation
  /// (callers MAC a small fixed header plus a payload).
  [[nodiscard]] std::array<u8, 32> mac(std::span<const u8> head,
                                       std::span<const u8> body = {}) const noexcept;

  /// Truncated tag: the first \p tag_len bytes of mac(head, body).
  /// \throws std::invalid_argument unless 1 <= tag_len <= 32.
  [[nodiscard]] bytes tag(std::size_t tag_len, std::span<const u8> head,
                          std::span<const u8> body = {}) const;

 private:
  sha256 inner_; ///< midstate after the ipad block
  sha256 outer_; ///< midstate after the opad block
};

/// HMAC-SHA256 over \p data with \p key (any length).
[[nodiscard]] std::array<u8, 32> hmac_sha256(std::span<const u8> key,
                                             std::span<const u8> data);

/// Truncated HMAC tag of \p tag_len bytes (hardware engines store short
/// per-line tags; 4-8 bytes is typical).
[[nodiscard]] bytes hmac_sha256_tag(std::span<const u8> key,
                                    std::span<const u8> data,
                                    std::size_t tag_len);

/// Classic CBC-MAC with zero IV over a block-multiple message. Only safe
/// for fixed-length messages — which per-cache-line tags are.
[[nodiscard]] bytes cbc_mac(const block_cipher& c, std::span<const u8> data);

/// Constant-time tag comparison.
[[nodiscard]] bool tag_equal(std::span<const u8> a, std::span<const u8> b) noexcept;

} // namespace buscrypt::crypto
