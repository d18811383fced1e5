#include "crypto/mac.hpp"

#include "common/bitops.hpp"

#include <algorithm>
#include <stdexcept>

namespace buscrypt::crypto {

hmac_sha256_key::hmac_sha256_key(std::span<const u8> key) noexcept {
  std::array<u8, sha256::block_size> k_block{};
  if (key.size() > k_block.size()) {
    const auto digest = sha256::hash(key);
    std::copy(digest.begin(), digest.end(), k_block.begin());
  } else {
    std::copy(key.begin(), key.end(), k_block.begin());
  }

  std::array<u8, sha256::block_size> pad{};
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = k_block[i] ^ 0x36;
  inner_.update(pad);
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = k_block[i] ^ 0x5c;
  outer_.update(pad);
}

std::array<u8, 32> hmac_sha256_key::mac(std::span<const u8> head,
                                        std::span<const u8> body) const noexcept {
  const std::size_t len = head.size() + body.size();
  if (len <= one_block_max) {
    // Pad head || body into the last inner block here; the kernel runs
    // both remaining compressions from the cached midstates.
    std::array<u8, sha256::block_size> last{};
    std::copy(head.begin(), head.end(), last.data());
    std::copy(body.begin(), body.end(), last.data() + head.size());
    last[len] = 0x80;
    store_be64(&last[sha256::block_size - 8], (sha256::block_size + len) * 8);
    std::array<u8, 32> out{};
    const sha256_kernels::hmac_block_fn kernel = sha256_kernels::hmac_block_active();
    kernel(inner_.chaining(), outer_.chaining(), last.data(), out.data());
    return out;
  }

  sha256 inner = inner_;
  inner.update(head);
  inner.update(body);
  const auto inner_digest = inner.digest();

  sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.digest();
}

bytes hmac_sha256_key::tag(std::size_t tag_len, std::span<const u8> head,
                           std::span<const u8> body) const {
  if (tag_len == 0 || tag_len > 32)
    throw std::invalid_argument("hmac tag length must be 1..32");
  const auto full = mac(head, body);
  return bytes(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(tag_len));
}

std::array<u8, 32> hmac_sha256(std::span<const u8> key, std::span<const u8> data) {
  return hmac_sha256_key(key).mac(data);
}

bytes hmac_sha256_tag(std::span<const u8> key, std::span<const u8> data,
                      std::size_t tag_len) {
  return hmac_sha256_key(key).tag(tag_len, data);
}

bytes cbc_mac(const block_cipher& c, std::span<const u8> data) {
  const std::size_t bs = c.block_size();
  if (data.size() % bs != 0)
    throw std::invalid_argument("cbc_mac: message must be block-multiple");
  bytes state(bs, 0);
  bytes scratch(bs);
  for (std::size_t off = 0; off < data.size(); off += bs) {
    for (std::size_t i = 0; i < bs; ++i)
      scratch[i] = static_cast<u8>(state[i] ^ data[off + i]);
    c.encrypt_block(scratch, state);
  }
  return state;
}

bool tag_equal(std::span<const u8> a, std::span<const u8> b) noexcept {
  if (a.size() != b.size()) return false;
  u8 acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<u8>(a[i] ^ b[i]);
  return acc == 0;
}

} // namespace buscrypt::crypto
