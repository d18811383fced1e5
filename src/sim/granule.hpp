#pragma once
/// \file granule.hpp
/// The granule map under every scalar datapath: how a request [addr,
/// addr + n) meets fixed granules (a cipher block, a CBC line, a GI
/// segment, a DMA page, a code group, a keyslot data unit, an L1 line).

#include "common/types.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace buscrypt::sim {

/// [addr, addr + n) widened to whole granules.
struct granule_cover {
  addr_t base = 0;      ///< address of the first granule touched
  std::size_t len = 0;  ///< bytes of whole granules from base
  std::size_t head = 0; ///< the request's offset from base
};

/// The whole \p g-byte granules [addr, addr + n) touches (an empty request
/// at an unaligned address touches one).
[[nodiscard]] constexpr granule_cover cover_of(addr_t addr, std::size_t n,
                                               std::size_t g) noexcept {
  const addr_t base = addr - addr % g;
  const addr_t end = (addr + n + g - 1) / g * g;
  return {base, static_cast<std::size_t>(end - base),
          static_cast<std::size_t>(addr - base)};
}

/// True when [addr, addr + n) is its own cover (an aligned empty one is).
[[nodiscard]] constexpr bool whole_granules(addr_t addr, std::size_t n,
                                            std::size_t g) noexcept {
  return addr % g == 0 && n % g == 0;
}

/// fn(base, offset, length, done) once per \p g-byte granule that
/// [addr, addr + n) touches, in address order: the granule's address, the
/// request's first byte in it, its bytes in it, and its bytes before it.
template <class Fn>
constexpr void walk_granules(addr_t addr, std::size_t n, std::size_t g, Fn&& fn) {
  std::size_t done = 0;
  while (done < n) {
    const addr_t a = addr + done;
    const std::size_t offset = static_cast<std::size_t>(a % g);
    const std::size_t len = std::min(g - offset, n - done);
    fn(a - offset, offset, len, done);
    done += len;
  }
}

/// One request's scratch bytes, zero-filled or a copy of a const input, so
/// no stale stack byte reaches a cipher or the bus. They sit on the stack
/// up to 4 KiB, the bound of crypto's CBC and CTR windows (a default DMA
/// page, a GI segment), and on the heap past it (16 KiB pages, image
/// installs). Make one per call, never a member: AEGIS, Gilmont and the
/// integrity EDU re-enter their own read()/write() inside a five-step write.
class stack_window {
 public:
  static constexpr std::size_t stack_bytes = 4096;

  explicit stack_window(std::size_t n) : bytes_(reserve(n)) {
    std::ranges::fill(bytes_, u8{0});
  }
  explicit stack_window(std::span<const u8> src) : bytes_(reserve(src.size())) {
    std::ranges::copy(src, bytes_.begin());
  }
  stack_window(const stack_window&) = delete;
  stack_window& operator=(const stack_window&) = delete;

  [[nodiscard]] std::span<u8> span() noexcept { return bytes_; }

 private:
  std::span<u8> reserve(std::size_t n) {
    if (n <= stack_bytes) return std::span<u8>(stack_).first(n);
    heap_.resize(n);
    return heap_;
  }

  std::array<u8, stack_bytes> stack_; // uninitialised: filled over bytes_
  bytes heap_;
  std::span<u8> bytes_;
};

} // namespace buscrypt::sim
