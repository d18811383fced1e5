#include "crypto/aes.hpp"

#include "common/bitops.hpp"

#include <stdexcept>

#if defined(BUSCRYPT_AES_NI) && (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#endif

namespace buscrypt::crypto {

namespace {

// ---------------------------------------------------------------------------
// GF(2^8) arithmetic with the AES reduction polynomial x^8+x^4+x^3+x+1.
// ---------------------------------------------------------------------------

constexpr u8 xtime(u8 x) noexcept {
  return static_cast<u8>((x << 1) ^ ((x & 0x80) ? 0x1B : 0x00));
}

constexpr u8 gmul(u8 a, u8 b) noexcept {
  u8 p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// Multiplicative inverse via a^254 (Fermat in GF(2^8)); inv(0) := 0.
constexpr u8 ginv(u8 a) noexcept {
  u8 r = 1;
  for (int i = 0; i < 254; ++i) r = gmul(r, a);
  return r;
}

constexpr std::array<u8, 256> make_sbox() noexcept {
  std::array<u8, 256> s{};
  for (int i = 0; i < 256; ++i) {
    const u8 x = ginv(static_cast<u8>(i));
    // Affine transform: b ^ rotl(b,1..4) ^ 0x63 over GF(2) bit vectors.
    u8 y = static_cast<u8>(x ^ ((x << 1) | (x >> 7)) ^ ((x << 2) | (x >> 6)) ^
                           ((x << 3) | (x >> 5)) ^ ((x << 4) | (x >> 4)) ^ 0x63);
    s[static_cast<std::size_t>(i)] = y;
  }
  return s;
}

constexpr std::array<u8, 256> k_sbox = make_sbox();

constexpr std::array<u8, 256> make_inv_sbox() noexcept {
  std::array<u8, 256> inv{};
  for (int i = 0; i < 256; ++i)
    inv[k_sbox[static_cast<std::size_t>(i)]] = static_cast<u8>(i);
  return inv;
}

constexpr std::array<u8, 256> k_inv_sbox = make_inv_sbox();

static_assert(k_sbox[0x00] == 0x63, "AES S-box sanity");
static_assert(k_sbox[0x53] == 0xED, "AES S-box sanity");
static_assert(k_inv_sbox[0x63] == 0x00, "AES inverse S-box sanity");

constexpr u32 sub_word(u32 w) noexcept {
  return (u32{k_sbox[(w >> 24) & 0xFF]} << 24) | (u32{k_sbox[(w >> 16) & 0xFF]} << 16) |
         (u32{k_sbox[(w >> 8) & 0xFF]} << 8) | u32{k_sbox[w & 0xFF]};
}

constexpr u32 rot_word(u32 w) noexcept { return rotl32(w, 8); }

// ---------------------------------------------------------------------------
// T-tables: SubBytes + ShiftRows' byte routing + MixColumns fused into one
// lookup per input byte. Table for row r is rotr(T0, 8r), computed at the
// lookup, so only the two 1 KiB base tables live in the binary. Derived at
// compile time from the same S-box/GF helpers as the reference rounds.
// ---------------------------------------------------------------------------

// Encrypt base table: MixColumns column 0 = (2, 1, 1, 3) of S[x].
constexpr std::array<u32, 256> make_te0() noexcept {
  std::array<u32, 256> t{};
  for (int i = 0; i < 256; ++i) {
    const u8 s = k_sbox[static_cast<std::size_t>(i)];
    t[static_cast<std::size_t>(i)] = (u32{gmul(s, 2)} << 24) | (u32{s} << 16) |
                                     (u32{s} << 8) | u32{gmul(s, 3)};
  }
  return t;
}

// Decrypt base table: InvMixColumns column 0 = (14, 9, 13, 11) of InvS[x].
constexpr std::array<u32, 256> make_td0() noexcept {
  std::array<u32, 256> t{};
  for (int i = 0; i < 256; ++i) {
    const u8 s = k_inv_sbox[static_cast<std::size_t>(i)];
    t[static_cast<std::size_t>(i)] = (u32{gmul(s, 14)} << 24) | (u32{gmul(s, 9)} << 16) |
                                     (u32{gmul(s, 13)} << 8) | u32{gmul(s, 11)};
  }
  return t;
}

constexpr std::array<u32, 256> k_te0 = make_te0();
constexpr std::array<u32, 256> k_td0 = make_td0();

constexpr u32 rotr32c(u32 x, unsigned n) noexcept { return (x >> n) | (x << (32 - n)); }

// One fused encrypt-round column: inputs are the state columns holding this
// output column's row-0..3 bytes after ShiftRows.
inline u32 te_col(u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
  return k_te0[(r0 >> 24) & 0xFF] ^ rotr32c(k_te0[(r1 >> 16) & 0xFF], 8) ^
         rotr32c(k_te0[(r2 >> 8) & 0xFF], 16) ^ rotr32c(k_te0[r3 & 0xFF], 24);
}

inline u32 td_col(u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
  return k_td0[(r0 >> 24) & 0xFF] ^ rotr32c(k_td0[(r1 >> 16) & 0xFF], 8) ^
         rotr32c(k_td0[(r2 >> 8) & 0xFF], 16) ^ rotr32c(k_td0[r3 & 0xFF], 24);
}

// InvMixColumns over one packed big-endian column word — used to derive the
// equivalent-inverse-cipher round keys at schedule time. Td0[S[x]] is the
// InvMixColumns column (14, 9, 13, 11) * x, so four lookups replace the
// sixteen GF(2^8) multiplies of the textbook form.
inline u32 inv_mix_word(u32 w) noexcept {
  return td_col(u32{k_sbox[w >> 24]} << 24, u32{k_sbox[(w >> 16) & 0xFF]} << 16,
                u32{k_sbox[(w >> 8) & 0xFF]} << 8, k_sbox[w & 0xFF]);
}

/// The 4*(nr+1) words of an nr-round schedule.
std::vector<u32> schedule_words(const aes_kernels::schedule& s, int nr) {
  std::vector<u32> w(static_cast<std::size_t>(4 * (nr + 1)));
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = load_be32(&s[4 * i]);
  return w;
}

aes_bits bits_from_key_len(std::size_t n) {
  switch (n) {
    case 16: return aes_bits::k128;
    case 24: return aes_bits::k192;
    case 32: return aes_bits::k256;
    default: throw std::invalid_argument("aes: key must be 16, 24 or 32 bytes");
  }
}

} // namespace

namespace aes_kernels {

#if defined(BUSCRYPT_AES_NI) && (defined(__x86_64__) || defined(__i386__))
// Defined in aes_ni.cpp, the only TU built with -maes.
const kernel& x86_aesni() noexcept;

namespace {

// The kernel needs AES-NI (leaf 1 ECX bit 25) plus the SSE4.1 its
// translation unit is built with (leaf 1 ECX bit 19).
bool cpu_has_aes_ni() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  return (c & (1u << 25)) != 0 && (c & (1u << 19)) != 0;
}

} // namespace
#endif

namespace {

void expand_portable(std::span<const u8> key, schedule& enc) noexcept {
  const int nk = static_cast<int>(key.size() / 4);
  const int total = 4 * (nk + 7);
  std::array<u32, 60> w;
  for (int i = 0; i < nk; ++i)
    w[static_cast<std::size_t>(i)] = load_be32(&key[static_cast<std::size_t>(4 * i)]);
  u32 rcon = 0x01;
  for (int i = nk; i < total; ++i) {
    u32 temp = w[static_cast<std::size_t>(i - 1)];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ (rcon << 24);
      rcon = gmul(static_cast<u8>(rcon), 2);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    w[static_cast<std::size_t>(i)] = w[static_cast<std::size_t>(i - nk)] ^ temp;
  }
  for (int i = 0; i < total; ++i)
    store_be32(&enc[static_cast<std::size_t>(4 * i)], w[static_cast<std::size_t>(i)]);
}

void invert_portable(const schedule& enc, int nr, schedule& dec) noexcept {
  for (int round = 0; round <= nr; ++round)
    for (std::size_t j = 0; j < 16; j += 4) {
      const u32 w = load_be32(&enc[static_cast<std::size_t>(16 * (nr - round)) + j]);
      store_be32(&dec[static_cast<std::size_t>(16 * round) + j],
                 round == 0 || round == nr ? w : inv_mix_word(w));
    }
}

void encrypt_portable(const schedule& ks, int nr, const u8* in, u8* out,
                      std::size_t n) noexcept {
  for (; n != 0; --n, in += 16, out += 16) {
    const u8* rk = ks.data();
    u32 c0 = load_be32(in) ^ load_be32(rk);
    u32 c1 = load_be32(in + 4) ^ load_be32(rk + 4);
    u32 c2 = load_be32(in + 8) ^ load_be32(rk + 8);
    u32 c3 = load_be32(in + 12) ^ load_be32(rk + 12);
    for (int round = 1; round < nr; ++round) {
      rk += 16;
      const u32 t0 = te_col(c0, c1, c2, c3) ^ load_be32(rk);
      const u32 t1 = te_col(c1, c2, c3, c0) ^ load_be32(rk + 4);
      const u32 t2 = te_col(c2, c3, c0, c1) ^ load_be32(rk + 8);
      const u32 t3 = te_col(c3, c0, c1, c2) ^ load_be32(rk + 12);
      c0 = t0;
      c1 = t1;
      c2 = t2;
      c3 = t3;
    }
    rk += 16;
    // Final round: SubBytes + ShiftRows only (no MixColumns).
    auto last = [](u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
      return (u32{k_sbox[(r0 >> 24) & 0xFF]} << 24) |
             (u32{k_sbox[(r1 >> 16) & 0xFF]} << 16) |
             (u32{k_sbox[(r2 >> 8) & 0xFF]} << 8) | u32{k_sbox[r3 & 0xFF]};
    };
    store_be32(out, last(c0, c1, c2, c3) ^ load_be32(rk));
    store_be32(out + 4, last(c1, c2, c3, c0) ^ load_be32(rk + 4));
    store_be32(out + 8, last(c2, c3, c0, c1) ^ load_be32(rk + 8));
    store_be32(out + 12, last(c3, c0, c1, c2) ^ load_be32(rk + 12));
  }
}

void decrypt_portable(const schedule& ks, int nr, const u8* in, u8* out,
                      std::size_t n) noexcept {
  for (; n != 0; --n, in += 16, out += 16) {
    const u8* rk = ks.data();
    u32 c0 = load_be32(in) ^ load_be32(rk);
    u32 c1 = load_be32(in + 4) ^ load_be32(rk + 4);
    u32 c2 = load_be32(in + 8) ^ load_be32(rk + 8);
    u32 c3 = load_be32(in + 12) ^ load_be32(rk + 12);
    // InvShiftRows routes row r of output column j from column (j - r) mod 4.
    for (int round = 1; round < nr; ++round) {
      rk += 16;
      const u32 t0 = td_col(c0, c3, c2, c1) ^ load_be32(rk);
      const u32 t1 = td_col(c1, c0, c3, c2) ^ load_be32(rk + 4);
      const u32 t2 = td_col(c2, c1, c0, c3) ^ load_be32(rk + 8);
      const u32 t3 = td_col(c3, c2, c1, c0) ^ load_be32(rk + 12);
      c0 = t0;
      c1 = t1;
      c2 = t2;
      c3 = t3;
    }
    rk += 16;
    auto last = [](u32 r0, u32 r1, u32 r2, u32 r3) noexcept {
      return (u32{k_inv_sbox[(r0 >> 24) & 0xFF]} << 24) |
             (u32{k_inv_sbox[(r1 >> 16) & 0xFF]} << 16) |
             (u32{k_inv_sbox[(r2 >> 8) & 0xFF]} << 8) | u32{k_inv_sbox[r3 & 0xFF]};
    };
    store_be32(out, last(c0, c3, c2, c1) ^ load_be32(rk));
    store_be32(out + 4, last(c1, c0, c3, c2) ^ load_be32(rk + 4));
    store_be32(out + 8, last(c2, c1, c0, c3) ^ load_be32(rk + 8));
    store_be32(out + 12, last(c3, c2, c1, c0) ^ load_be32(rk + 12));
  }
}

} // namespace

const kernel& portable() noexcept {
  static constexpr kernel k{&expand_portable, &invert_portable, &encrypt_portable,
                            &decrypt_portable};
  return k;
}

const kernel* aes_ni() noexcept {
#if defined(BUSCRYPT_AES_NI) && (defined(__x86_64__) || defined(__i386__))
  static const bool supported = cpu_has_aes_ni();
  return supported ? &x86_aesni() : nullptr;
#else
  return nullptr;
#endif
}

const kernel& active() noexcept {
  static const kernel* const k = aes_ni() != nullptr ? aes_ni() : &portable();
  return *k;
}

} // namespace aes_kernels

aes::aes(std::span<const u8> key) : aes(key, bits_from_key_len(key.size())) {}

aes::aes(std::span<const u8> key, aes_bits bits)
    : kernel_(&aes_kernels::active()), nr_(static_cast<int>(bits) / 32 + 6) {
  if (key.size() != static_cast<std::size_t>(nr_ - 6) * 4)
    throw std::invalid_argument("aes: key length disagrees with requested width");
  kernel_->expand(key, enc_);
  kernel_->invert(enc_, nr_, dec_);
}

std::string_view aes::name() const noexcept {
  switch (nr_) {
    case 10: return "AES-128";
    case 12: return "AES-192";
    default: return "AES-256";
  }
}

void aes::encrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  kernel_->encrypt(enc_, nr_, in.data(), out.data(), 1);
}

void aes::decrypt_block(std::span<const u8> in, std::span<u8> out) const {
  check_block(in, out);
  kernel_->decrypt(dec_, nr_, in.data(), out.data(), 1);
}

void aes::encrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  kernel_->encrypt(enc_, nr_, in.data(), out.data(), in.size() / 16);
}

void aes::decrypt_blocks(std::span<const u8> in, std::span<u8> out) const {
  check_blocks(in, out);
  kernel_->decrypt(dec_, nr_, in.data(), out.data(), in.size() / 16);
}

std::vector<u32> aes::round_keys() const { return schedule_words(enc_, nr_); }

std::vector<u32> aes::decrypt_round_keys() const { return schedule_words(dec_, nr_); }

} // namespace buscrypt::crypto
