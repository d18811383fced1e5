#include "compress/entropy.hpp"

#include <array>
#include <cmath>
#include <string>
#include <unordered_map>

namespace buscrypt::compress {

double shannon_entropy(std::span<const u8> data) {
  if (data.empty()) return 0.0;
  std::array<u64, 256> hist{};
  for (u8 b : data) ++hist[b];
  const double n = static_cast<double>(data.size());
  double h = 0.0;
  for (u64 c : hist) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

double chi_square(std::span<const u8> data) {
  if (data.empty()) return 0.0;
  std::array<u64, 256> hist{};
  for (u8 b : data) ++hist[b];
  const double expected = static_cast<double>(data.size()) / 256.0;
  double chi = 0.0;
  for (u64 c : hist) {
    const double d = static_cast<double>(c) - expected;
    chi += d * d / expected;
  }
  return chi;
}

double serial_correlation(std::span<const u8> data) {
  if (data.size() < 2) return 0.0;
  const std::size_t n = data.size() - 1;
  double sum_x = 0, sum_y = 0, sum_xy = 0, sum_x2 = 0, sum_y2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = data[i];
    const double y = data[i + 1];
    sum_x += x;
    sum_y += y;
    sum_xy += x * y;
    sum_x2 += x * x;
    sum_y2 += y * y;
  }
  const double nn = static_cast<double>(n);
  const double num = nn * sum_xy - sum_x * sum_y;
  const double den =
      std::sqrt((nn * sum_x2 - sum_x * sum_x) * (nn * sum_y2 - sum_y * sum_y));
  return den == 0.0 ? 0.0 : num / den;
}

std::size_t repeated_blocks(std::span<const u8> data, std::size_t block_size) {
  if (block_size == 0) return 0;
  std::unordered_map<std::string, std::size_t> census;
  for (std::size_t off = 0; off + block_size <= data.size(); off += block_size) {
    census[std::string(reinterpret_cast<const char*>(&data[off]), block_size)]++;
  }
  std::size_t repeated = 0;
  for (const auto& [block, count] : census)
    if (count > 1) repeated += count;
  return repeated;
}

} // namespace buscrypt::compress
