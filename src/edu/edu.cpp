#include "edu/edu.hpp"

namespace buscrypt::edu {

// Chunks count from base (a walk of the image's own offsets), so an
// unaligned image is chunked the same as an aligned one.

void edu::install_image(addr_t base, std::span<const u8> plain) {
  sim::walk_granules(0, plain.size(), preferred_chunk(),
                     [&](addr_t off, std::size_t, std::size_t n, std::size_t) {
                       (void)write(base + off, plain.subspan(off, n));
                     });
}

void edu::read_image(addr_t base, std::span<u8> plain_out) {
  sim::walk_granules(0, plain_out.size(), preferred_chunk(),
                     [&](addr_t off, std::size_t, std::size_t n, std::size_t) {
                       (void)read(base + off, plain_out.subspan(off, n));
                     });
}

} // namespace buscrypt::edu
