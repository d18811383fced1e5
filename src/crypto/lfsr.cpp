#include "crypto/lfsr.hpp"

#include "common/bitops.hpp"

namespace buscrypt::crypto {

namespace {

// Maximal-length taps for a 64-bit Galois LFSR: x^64 + x^63 + x^61 + x^60 + 1.
constexpr u64 k_taps = 0xD800000000000000ULL;

u64 fold_state(std::span<const u8> key, std::span<const u8> iv) noexcept {
  u64 s = 0;
  for (std::size_t i = 0; i < key.size(); ++i)
    s ^= u64{key[i]} << ((i % 8) * 8);
  for (std::size_t i = 0; i < iv.size(); ++i)
    s ^= u64{iv[i]} << ((i % 8) * 8) ^
         rotl64(u64{iv[i]}, static_cast<unsigned>(i) % 63 + 1);
  return s == 0 ? 0x1B59A4D3C2F1E807ULL : s;
}

} // namespace

galois_lfsr::galois_lfsr(std::span<const u8> key, std::span<const u8> iv) {
  reseed(key, iv);
}

void galois_lfsr::reseed(std::span<const u8> key, std::span<const u8> iv) {
  state_ = fold_state(key, iv);
}

void galois_lfsr::keystream(std::span<u8> out) {
  u64 s = state_;
  for (auto& b : out) {
    u8 acc = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const u64 lsb = s & 1;
      s >>= 1;
      s ^= (0 - lsb) & k_taps;
      acc = static_cast<u8>((acc << 1) | lsb);
    }
    b = acc;
  }
  state_ = s;
}

// ---------------------------------------------------------------------------
// Trivium
// ---------------------------------------------------------------------------

trivium::trivium(std::span<const u8> key, std::span<const u8> iv) { reseed(key, iv); }

void trivium::reseed(std::span<const u8> key, std::span<const u8> iv) {
  a_ = shiftreg{};
  b_ = shiftreg{};
  c_ = shiftreg{};
  // (s1..s80) <- key bits, MSB of key[0] first.
  for (unsigned j = 0; j < 80 && j / 8 < key.size(); ++j)
    a_.set(j, ((key[j / 8] >> (7 - j % 8)) & 1) != 0);
  // (s94..s173) <- IV bits.
  for (unsigned j = 0; j < 80 && j / 8 < iv.size(); ++j)
    b_.set(j, ((iv[j / 8] >> (7 - j % 8)) & 1) != 0);
  // (s286, s287, s288) <- (1, 1, 1): indices 108..110 of register C.
  c_.set(108, true);
  c_.set(109, true);
  c_.set(110, true);
  // Warm-up: 4 full cycles of the 288-bit state.
  for (int i = 0; i < 4 * 288; ++i) (void)step();
}

bool trivium::step() noexcept {
  bool t1 = a_.get(65) ^ a_.get(92);   // s66 ^ s93
  bool t2 = b_.get(68) ^ b_.get(83);   // s162 ^ s177
  bool t3 = c_.get(65) ^ c_.get(110);  // s243 ^ s288
  const bool z = t1 ^ t2 ^ t3;
  t1 = t1 ^ (a_.get(90) && a_.get(91)) ^ b_.get(77);   // s91&s92 ^ s171
  t2 = t2 ^ (b_.get(80) && b_.get(81)) ^ c_.get(86);   // s175&s176 ^ s264
  t3 = t3 ^ (c_.get(107) && c_.get(108)) ^ a_.get(68); // s286&s287 ^ s69
  a_.shift_in(t3);
  b_.shift_in(t1);
  c_.shift_in(t2);
  return z;
}

u8 trivium::next_byte() noexcept {
  u8 acc = 0;
  for (int i = 0; i < 8; ++i) acc = static_cast<u8>((acc << 1) | u8{step()});
  return acc;
}

void trivium::keystream(std::span<u8> out) {
  for (auto& b : out) b = next_byte();
}

} // namespace buscrypt::crypto
