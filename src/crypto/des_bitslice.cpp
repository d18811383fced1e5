#include "crypto/des_bitslice.hpp"

#include "crypto/des_bitslice_core.hpp"

#include <array>
#include <cassert>
#include <cstddef>

namespace buscrypt::crypto::bitslice {

#if defined(BUSCRYPT_DES_AVX2)
void des_crypt_group_avx2(std::span<const des_pass> passes, std::span<const u8> in,
                          std::span<u8> out);
#endif
#if defined(BUSCRYPT_DES_AVX512)
void des_crypt_group_avx512(std::span<const des_pass> passes, std::span<const u8> in,
                            std::span<u8> out);
#endif
#if defined(BUSCRYPT_DES_AVX512VL)
void des_crypt_group128_vl(std::span<const des_pass> passes, std::span<const u8> in,
                           std::span<u8> out);
void des_crypt_group256_vl(std::span<const des_pass> passes, std::span<const u8> in,
                           std::span<u8> out);
#endif

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define BUSCRYPT_DES_V128 1
typedef u64 v128 __attribute__((vector_size(16)));

void des_crypt_group128(std::span<const des_pass> passes, std::span<const u8> in,
                        std::span<u8> out) {
  crypt_group<v128>(passes, in, out);
}
#endif

void des_crypt_group64(std::span<const des_pass> passes, std::span<const u8> in,
                       std::span<u8> out) {
  crypt_group<u64>(passes, in, out);
}

// The lane-group kinds this build + host can run, widest first. The u64
// kind is always last, so a partial final group always has a home.
struct group_kind {
  std::size_t capacity; // blocks per full group
  void (*run)(std::span<const des_pass>, std::span<const u8>, std::span<u8>);
};

struct group_table {
  std::array<group_kind, 4> kind{};
  std::size_t count = 0;
};

const group_table& groups() {
  static const group_table table = [] {
    group_table t;
    bool vl = false;
#if defined(BUSCRYPT_DES_AVX512VL) && (defined(__x86_64__) || defined(__i386__))
    vl = __builtin_cpu_supports("avx512vl");
#endif
    (void)vl;
#if defined(BUSCRYPT_DES_AVX512) && (defined(__x86_64__) || defined(__i386__))
    if (__builtin_cpu_supports("avx512f"))
      t.kind[t.count++] = {512, &des_crypt_group_avx512};
#endif
#if defined(BUSCRYPT_DES_AVX512VL) && (defined(__x86_64__) || defined(__i386__))
    if (vl) t.kind[t.count++] = {256, &des_crypt_group256_vl};
#endif
#if defined(BUSCRYPT_DES_AVX2) && (defined(__x86_64__) || defined(__i386__))
    if (!vl && __builtin_cpu_supports("avx2"))
      t.kind[t.count++] = {256, &des_crypt_group_avx2};
#endif
#if defined(BUSCRYPT_DES_AVX512VL) && (defined(__x86_64__) || defined(__i386__))
    if (vl) t.kind[t.count++] = {128, &des_crypt_group128_vl};
#endif
#if defined(BUSCRYPT_DES_V128)
    if (t.count == 0 || t.kind[t.count - 1].capacity != 128)
      t.kind[t.count++] = {128, &des_crypt_group128};
#endif
    t.kind[t.count++] = {64, &des_crypt_group64};
    return t;
  }();
  return table;
}

} // namespace

std::size_t wide_prefix(std::size_t nblocks) noexcept {
  // Only groups of >= 128 blocks beat the scalar SP tables (see the
  // break-even note in des_bitslice.hpp); the sub-group tail is the
  // caller's to run scalar.
  const group_table& t = groups();
  std::size_t rem = nblocks;
  std::size_t taken = 0;
  for (std::size_t i = 0; i < t.count && t.kind[i].capacity >= k_min_wide_blocks; ++i) {
    taken += rem / t.kind[i].capacity * t.kind[i].capacity;
    rem %= t.kind[i].capacity;
  }
  return taken;
}

void des_crypt_wide(std::span<const des_pass> passes, std::span<const u8> in,
                    std::span<u8> out) {
  assert(in.size() == out.size() && in.size() % 8 == 0 && !in.empty());
  assert(!passes.empty());

  const group_table& t = groups();
  std::size_t off = 0;
  while (off < in.size()) {
    const std::size_t rem = (in.size() - off) / 8;
    // Full groups widest-first; a remainder smaller than every capacity
    // runs as a partial group on the narrowest kind (cost is per full
    // group whether or not all lanes are populated).
    std::size_t g = rem < t.kind[t.count - 1].capacity ? rem : 0;
    const group_kind* kind = &t.kind[t.count - 1];
    for (std::size_t i = 0; i < t.count; ++i)
      if (t.kind[i].capacity <= rem) {
        kind = &t.kind[i];
        g = kind->capacity;
        break;
      }
    kind->run(passes, in.subspan(off, g * 8), out.subspan(off, g * 8));
    off += g * 8;
  }
}

} // namespace buscrypt::crypto::bitslice
