#include "crypto/bignum.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace buscrypt::crypto {

namespace {

constexpr u64 k_base = u64{1} << 32;

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("bignum: invalid hex digit");
}

// Montgomery arithmetic on 64-bit words (a 64x64 -> 128-bit multiply).
__extension__ typedef unsigned __int128 u128;

/// -m0^-1 mod 2^64 for odd m0, by Newton iteration: m0 is its own inverse
/// mod 8, and each step doubles the number of correct low bits.
u64 neg_inverse(u64 m0) noexcept {
  u64 inv = m0;
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  return 0 - inv;
}

/// out = a * b * 2^(-64n) mod m for a, b < m (CIOS: Koc, Acar and Kaliski,
/// 1996). \p m is odd with n words, \p m_inv = neg_inverse(m[0]), \p t is
/// n + 2 words of scratch. \p out may alias \p a or \p b.
void mont_mul(const u64* a, const u64* b, const u64* m, u64 m_inv, std::size_t n, u64* t,
              u64* out) noexcept {
  std::fill_n(t, n + 2, u64{0});
  for (std::size_t i = 0; i < n; ++i) {
    // t += a * b[i]
    u64 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = u128{a[j]} * b[i] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 top = u128{t[n]} + carry;
    t[n] = static_cast<u64>(top);
    t[n + 1] = static_cast<u64>(top >> 64);
    // t = (t + q * m) / 2^64, with q chosen so the low word cancels.
    const u64 q = t[0] * m_inv;
    carry = static_cast<u64>((u128{q} * m[0] + t[0]) >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      const u128 cur = u128{q} * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    top = u128{t[n]} + carry;
    t[n - 1] = static_cast<u64>(top);
    t[n] = t[n + 1] + static_cast<u64>(top >> 64);
  }
  // t < 2m: subtract m once unless that borrows past t's top word.
  u64 borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 diff = t[j] - m[j];
    const u64 next = (t[j] < m[j]) | (diff < borrow);
    out[j] = diff - borrow;
    borrow = next;
  }
  if (t[n] == 0 && borrow != 0) std::copy_n(t, n, out);
}

} // namespace

bignum::bignum(u64 v) {
  if (v != 0) limbs_.push_back(static_cast<u32>(v));
  if (v >> 32) limbs_.push_back(static_cast<u32>(v >> 32));
}

void bignum::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

bignum bignum::from_bytes(std::span<const u8> be) {
  bignum out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < be.size(); ++i)
    out.limbs_[i / 4] |= u32{be[be.size() - 1 - i]} << (8 * (i % 4));
  out.trim();
  return out;
}

bignum bignum::from_hex(std::string_view hex) {
  bignum out;
  for (char c : hex) {
    const int d = hex_digit(c);
    out = out.shifted_left(4);
    if (d != 0) {
      if (out.limbs_.empty()) out.limbs_.push_back(0);
      out.limbs_[0] |= static_cast<u32>(d);
    }
  }
  out.trim();
  return out;
}

bytes bignum::to_bytes(std::size_t min_len) const {
  bytes out;
  const std::size_t nbytes = (bit_length() + 7) / 8;
  out.resize(std::max(nbytes, min_len), 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    const u32 limb = limbs_[i / 4];
    out[out.size() - 1 - i] = static_cast<u8>(limb >> (8 * (i % 4)));
  }
  return out;
}

std::string bignum::to_hex() const {
  if (limbs_.empty()) return "0";
  static constexpr char digits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4)
      out.push_back(digits[(limbs_[i] >> shift) & 0xF]);
  }
  const auto first = out.find_first_not_of('0');
  return first == std::string::npos ? "0" : out.substr(first);
}

std::size_t bignum::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  const u32 top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  return bits + (32 - static_cast<std::size_t>(std::countl_zero(top)));
}

bool bignum::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::strong_ordering bignum::operator<=>(const bignum& rhs) const noexcept {
  if (limbs_.size() != rhs.limbs_.size())
    return limbs_.size() <=> rhs.limbs_.size();
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] <=> rhs.limbs_[i];
  }
  return std::strong_ordering::equal;
}

bignum& bignum::operator+=(const bignum& rhs) {
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  limbs_.resize(n, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u64 sum = carry + limbs_[i];
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    limbs_[i] = static_cast<u32>(sum);
    carry = sum >> 32;
  }
  if (carry) limbs_.push_back(static_cast<u32>(carry));
  return *this;
}

bignum& bignum::operator-=(const bignum& rhs) {
  if (*this < rhs) throw std::domain_error("bignum: negative subtraction");
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 sub = (i < rhs.limbs_.size() ? rhs.limbs_[i] : 0) + borrow;
    const u64 cur = limbs_[i];
    if (cur >= sub) {
      limbs_[i] = static_cast<u32>(cur - sub);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<u32>(cur + k_base - sub);
      borrow = 1;
    }
  }
  trim();
  return *this;
}

bignum operator*(const bignum& a, const bignum& b) {
  if (a.limbs_.empty() || b.limbs_.empty()) return bignum{};
  bignum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 carry = 0;
    const u64 ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const u64 cur = u64{out.limbs_[i + j]} + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<u32>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry) {
      const u64 cur = u64{out.limbs_[k]} + carry;
      out.limbs_[k] = static_cast<u32>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

bignum bignum::shifted_left(std::size_t bits) const {
  if (limbs_.empty() || bits == 0) {
    bignum out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 32;
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  bignum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0)
      out.limbs_[i + limb_shift + 1] |=
          static_cast<u32>(u64{limbs_[i]} >> (32 - bit_shift));
  }
  out.trim();
  return out;
}

bignum bignum::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return bignum{};
  const unsigned bit_shift = static_cast<unsigned>(bits % 32);
  bignum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 v = u64{limbs_[i + limb_shift]} >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      v |= u64{limbs_[i + limb_shift + 1]} << (32 - bit_shift);
    out.limbs_[i] = static_cast<u32>(v);
  }
  out.trim();
  return out;
}

bignum::divmod_result bignum::divmod(const bignum& num, const bignum& den) {
  if (den.is_zero()) throw std::domain_error("bignum: division by zero");
  if (num < den) return {bignum{}, num};

  // Single-limb fast path.
  if (den.limbs_.size() == 1) {
    const u64 d = den.limbs_[0];
    bignum q;
    q.limbs_.assign(num.limbs_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      const u64 cur = (rem << 32) | num.limbs_[i];
      q.limbs_[i] = static_cast<u32>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {std::move(q), bignum{rem}};
  }

  // Knuth Algorithm D (TAOCP 4.3.1). Normalize so the divisor's top limb
  // has its high bit set.
  const unsigned shift = static_cast<unsigned>(std::countl_zero(den.limbs_.back()));
  const bignum v = den.shifted_left(shift);
  bignum u = num.shifted_left(shift);
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() >= n ? u.limbs_.size() - n : 0;
  u.limbs_.resize(u.limbs_.size() + 1, 0); // room for u[m+n]

  bignum q;
  q.limbs_.assign(m + 1, 0);

  const u64 v_top = v.limbs_[n - 1];
  const u64 v_next = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    const u64 numerator = (u64{u.limbs_[j + n]} << 32) | u.limbs_[j + n - 1];
    u64 qhat = numerator / v_top;
    u64 rhat = numerator % v_top;
    while (qhat >= k_base || qhat * v_next > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= k_base) break;
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    i64 borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 product = qhat * v.limbs_[i] + carry;
      carry = product >> 32;
      const i64 diff = static_cast<i64>(u.limbs_[i + j]) -
                       static_cast<i64>(product & 0xFFFFFFFFULL) + borrow;
      u.limbs_[i + j] = static_cast<u32>(diff);
      borrow = diff >> 32; // arithmetic shift: 0 or -1
    }
    const i64 top_diff =
        static_cast<i64>(u.limbs_[j + n]) - static_cast<i64>(carry) + borrow;
    u.limbs_[j + n] = static_cast<u32>(top_diff);

    if (top_diff < 0) {
      // qhat was one too large: add v back.
      --qhat;
      u64 carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u64 sum = u64{u.limbs_[i + j]} + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<u32>(sum);
        carry2 = sum >> 32;
      }
      u.limbs_[j + n] = static_cast<u32>(u.limbs_[j + n] + carry2);
    }
    q.limbs_[j] = static_cast<u32>(qhat);
  }

  q.trim();
  u.limbs_.resize(n);
  u.trim();
  return {std::move(q), u.shifted_right(shift)};
}

u32 bignum::mod_u32(u32 d) const {
  if (d == 0) throw std::domain_error("bignum: division by zero");
  u64 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) rem = ((rem << 32) | limbs_[i]) % d;
  return static_cast<u32>(rem);
}

bignum bignum::mulmod(const bignum& a, const bignum& b, const bignum& m) {
  return (a * b) % m;
}

bignum bignum::powmod(const bignum& base, const bignum& exp, const bignum& m) {
  if (m.is_zero()) throw std::domain_error("bignum: powmod with zero modulus");
  if (m == bignum{1}) return bignum{};
  const std::size_t nbits = exp.bit_length();
  if (!m.is_odd()) {
    // Montgomery needs an odd modulus: square and multiply with mulmod.
    bignum result{1};
    const bignum b = base % m;
    for (std::size_t i = nbits; i-- > 0;) {
      result = mulmod(result, result, m);
      if (exp.bit(i)) result = mulmod(result, b, m);
    }
    return result;
  }
  if (nbits == 0) return bignum{1};

  // Left-to-right square and multiply in Montgomery form, R = 2^(64n).
  // One buffer holds the modulus, base * R mod m, the running power and
  // the CIOS scratch, so the ladder allocates and divides nothing.
  const std::size_t n = (m.limbs_.size() + 1) / 2;
  std::vector<u64> words(4 * n + 2, 0);
  u64* const mod = words.data();
  u64* const b = mod + n;
  u64* const x = b + n;
  u64* const t = x + n;
  const auto pack = [](const bignum& v, u64* out) {
    for (std::size_t i = 0; i < v.limbs_.size(); ++i)
      out[i / 2] |= u64{v.limbs_[i]} << (32 * (i % 2));
  };
  pack(m, mod);
  pack(base.shifted_left(64 * n) % m, b);
  const u64 m_inv = neg_inverse(mod[0]);

  std::copy_n(b, n, x); // the exponent's top bit
  for (std::size_t i = nbits - 1; i-- > 0;) {
    mont_mul(x, x, mod, m_inv, n, t, x);
    if (exp.bit(i)) mont_mul(x, b, mod, m_inv, n, t, x);
  }
  // Leave Montgomery form: multiply by 1.
  std::fill_n(b, n, u64{0});
  b[0] = 1;
  mont_mul(x, b, mod, m_inv, n, t, x);

  bignum result;
  result.limbs_.resize(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i)
    result.limbs_[i] = static_cast<u32>(x[i / 2] >> (32 * (i % 2)));
  result.trim();
  return result;
}

bignum bignum::gcd(bignum a, bignum b) {
  while (!b.is_zero()) {
    bignum r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

bignum bignum::modinv(const bignum& a, const bignum& m) {
  // Extended Euclid with sign tracking on the Bezout coefficient for a.
  bignum old_r = a % m, r = m;
  bignum old_s{1}, s{};
  bool old_s_neg = false, s_neg = false;

  while (!r.is_zero()) {
    const auto [q, rem] = divmod(old_r, r);
    old_r = std::move(r);
    r = rem;

    // new_s = old_s - q * s  (signed arithmetic on magnitudes).
    const bignum qs = q * s;
    bignum new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = std::move(s);
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }

  if (old_r != bignum{1}) throw std::domain_error("bignum: modinv of non-unit");
  bignum inv = old_s % m;
  if (old_s_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

u64 bignum::low_u64() const noexcept {
  u64 v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= u64{limbs_[1]} << 32;
  return v;
}

} // namespace buscrypt::crypto
