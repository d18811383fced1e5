#include "crypto/toy_cipher.hpp"

#include <stdexcept>
#include <utility>

namespace buscrypt::crypto {

namespace {

u64 mix64(u64 z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

} // namespace

byte_bus_cipher::byte_bus_cipher(std::span<const u8> key, unsigned addr_bits)
    : addr_bits_(addr_bits) {
  if (key.size() != 8)
    throw std::invalid_argument("byte_bus_cipher: key must be 8 bytes");
  if (addr_bits == 0 || addr_bits > 48)
    throw std::invalid_argument("byte_bus_cipher: addr_bits must be 1..48");

  u64 seed = 0;
  for (std::size_t i = 0; i < 8; ++i) seed |= u64{key[i]} << (8 * i);
  u64 state = seed ^ 0x5851F42D4C957F2DULL;
  auto next = [&state]() noexcept {
    state += 0x9E3779B97F4A7C15ULL;
    return mix64(state);
  };

  for (int i = 0; i < 256; ++i) sbox_[static_cast<std::size_t>(i)] = static_cast<u8>(i);
  for (int i = 255; i > 0; --i) {
    const auto j = static_cast<std::size_t>(next() % static_cast<u64>(i + 1));
    std::swap(sbox_[static_cast<std::size_t>(i)], sbox_[j]);
  }
  for (std::size_t i = 0; i < 256; ++i) inv_sbox_[sbox_[i]] = static_cast<u8>(i);

  for (unsigned i = 0; i < 64; ++i) addr_perm_[i] = static_cast<u8>(i);
  for (unsigned i = addr_bits_ - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(next() % static_cast<u64>(i + 1));
    std::swap(addr_perm_[i], addr_perm_[j]);
  }
  for (unsigned i = 0; i < 64; ++i) inv_addr_perm_[addr_perm_[i]] = static_cast<u8>(i);

  addr_xor_ = next() & ((addr_bits_ == 64 ? ~u64{0} : (u64{1} << addr_bits_) - 1));
  mask_key_ = next();
}

addr_t byte_bus_cipher::scramble_addr(addr_t addr) const noexcept {
  addr_t out = 0;
  for (unsigned i = 0; i < addr_bits_; ++i)
    out |= ((addr >> addr_perm_[i]) & 1) << i;
  return out ^ addr_xor_;
}

addr_t byte_bus_cipher::unscramble_addr(addr_t bus_addr) const noexcept {
  const addr_t a = bus_addr ^ addr_xor_;
  addr_t out = 0;
  for (unsigned i = 0; i < addr_bits_; ++i)
    out |= ((a >> i) & 1) << addr_perm_[i];
  return out;
}

u8 byte_bus_cipher::addr_mask_byte(addr_t addr) const noexcept {
  const u64 m = mix64(addr ^ mask_key_);
  return static_cast<u8>(m ^ (m >> 24) ^ (m >> 48));
}

u8 byte_bus_cipher::encrypt_byte(addr_t addr, u8 plain) const noexcept {
  return sbox_[static_cast<u8>(plain ^ addr_mask_byte(addr))];
}

u8 byte_bus_cipher::decrypt_byte(addr_t addr, u8 cipher) const noexcept {
  return static_cast<u8>(inv_sbox_[cipher] ^ addr_mask_byte(addr));
}

void byte_bus_cipher::encrypt_range(addr_t base, std::span<const u8> in,
                                    std::span<u8> out) const {
  if (in.size() != out.size())
    throw std::invalid_argument("byte_bus_cipher: in/out size mismatch");
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = encrypt_byte(base + i, in[i]);
}

void byte_bus_cipher::decrypt_range(addr_t base, std::span<const u8> in,
                                    std::span<u8> out) const {
  if (in.size() != out.size())
    throw std::invalid_argument("byte_bus_cipher: in/out size mismatch");
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = decrypt_byte(base + i, in[i]);
}

} // namespace buscrypt::crypto
