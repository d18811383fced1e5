#pragma once
/// \file entropy.hpp
/// Statistical measures backing two of the survey's claims:
///   - "compression will have a very poor ratio [after encryption] due to
///     the strong stochastic properties of encrypted data";
///   - "compression increases the message entropy and thus improves the
///     efficiency of an encryption algorithm".
/// Also the repeated-block census that exposes ECB's determinism.

#include "common/types.hpp"

#include <span>

namespace buscrypt::compress {

/// Shannon entropy of the byte histogram, in bits per byte (0..8).
[[nodiscard]] double shannon_entropy(std::span<const u8> data);

/// Chi-square statistic against the uniform byte distribution. For random
/// data this concentrates near 255 (the degrees of freedom).
[[nodiscard]] double chi_square(std::span<const u8> data);

/// Lag-1 serial correlation coefficient. Near 0 for random data, near 1
/// for smooth/structured data.
[[nodiscard]] double serial_correlation(std::span<const u8> data);

/// Number of \p block_size-aligned blocks that appear more than once —
/// what an ECB ciphertext leaks about plaintext structure.
[[nodiscard]] std::size_t repeated_blocks(std::span<const u8> data,
                                          std::size_t block_size);

} // namespace buscrypt::compress
