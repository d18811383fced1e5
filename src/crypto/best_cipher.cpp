#include "crypto/best_cipher.hpp"

#include <stdexcept>

namespace buscrypt::crypto {

namespace {

/// Tiny deterministic expander for the key schedule (splitmix64 core).
/// Key-schedule quality is not the weakness we study; diffusion is.
class expander {
 public:
  explicit expander(std::span<const u8> key) {
    for (std::size_t i = 0; i < key.size(); ++i)
      state_ ^= u64{key[i]} << ((i % 8) * 8) ^ (u64{key[i]} << ((i * 5) % 56));
  }
  u64 next() noexcept {
    state_ += 0x9E3779B97F4A7C15ULL;
    u64 z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  u32 below(u32 bound) noexcept { return static_cast<u32>(next() % bound); }

 private:
  u64 state_ = 0x243F6A8885A308D3ULL;
};

} // namespace

best_cipher::best_cipher(std::span<const u8> key) {
  if (key.size() != 16)
    throw std::invalid_argument("best_cipher: key must be 16 bytes");

  expander ex(key);

  // Key-derived mono-alphabetic S-box: Fisher–Yates permutation of 0..255.
  for (int i = 0; i < 256; ++i) sbox_[static_cast<std::size_t>(i)] = static_cast<u8>(i);
  for (int i = 255; i > 0; --i) {
    const u32 j = ex.below(static_cast<u32>(i + 1));
    std::swap(sbox_[static_cast<std::size_t>(i)], sbox_[j]);
  }
  for (std::size_t i = 0; i < 256; ++i) inv_sbox_[sbox_[i]] = static_cast<u8>(i);

  // Poly-alphabetic offsets and per-round byte transpositions.
  for (int r = 0; r < k_rounds; ++r) {
    auto& round_perm = perm_[static_cast<std::size_t>(r)];
    for (int i = 0; i < 8; ++i) {
      offsets_[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          static_cast<u8>(ex.next());
      round_perm[static_cast<std::size_t>(i)] = static_cast<u8>(i);
    }
    for (int i = 7; i > 0; --i) {
      const u32 j = ex.below(static_cast<u32>(i + 1));
      std::swap(round_perm[static_cast<std::size_t>(i)], round_perm[j]);
    }
    for (int i = 0; i < 8; ++i)
      inv_perm_[static_cast<std::size_t>(r)][round_perm[static_cast<std::size_t>(i)]] =
          static_cast<u8>(i);
  }
}

void best_cipher::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  std::array<u8, 8> b{};
  for (std::size_t i = 0; i < 8; ++i) b[i] = in[i];

  for (int r = 0; r < k_rounds; ++r) {
    // Poly-alphabetic substitution: alphabet varies with position & round.
    for (int i = 0; i < 8; ++i) {
      const u8 shifted = static_cast<u8>(
          b[static_cast<std::size_t>(i)] +
          offsets_[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]);
      b[static_cast<std::size_t>(i)] = sbox_[shifted];
    }
    // Byte transposition.
    std::array<u8, 8> t = b;
    for (int i = 0; i < 8; ++i)
      b[static_cast<std::size_t>(i)] =
          t[perm_[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]];
  }
  for (std::size_t i = 0; i < 8; ++i) out[i] = b[i];
}

void best_cipher::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  std::array<u8, 8> b{};
  for (std::size_t i = 0; i < 8; ++i) b[i] = in[i];

  for (int r = k_rounds - 1; r >= 0; --r) {
    std::array<u8, 8> t = b;
    for (int i = 0; i < 8; ++i)
      b[static_cast<std::size_t>(i)] =
          t[inv_perm_[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]];
    for (int i = 0; i < 8; ++i) {
      const u8 sub = inv_sbox_[b[static_cast<std::size_t>(i)]];
      b[static_cast<std::size_t>(i)] = static_cast<u8>(
          sub - offsets_[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]);
    }
  }
  for (std::size_t i = 0; i < 8; ++i) out[i] = b[i];
}

} // namespace buscrypt::crypto
