#include "gf2/hash.hpp"

#include <array>
#include <bit>
#include <utility>

namespace waves::gf2 {

ExpHash::ExpHash(const Field& field, std::uint64_t q, std::uint64_t r)
    : q_(q & field.order_mask()),
      r_(r & field.order_mask()),
      d_(field.dimension()),
      bytes_((field.dimension() + 7) / 8) {
  // basis[i] = q * x^i for i < d; bits at or above d do not participate.
  std::array<std::uint64_t, 64> basis{};
  for (int i = 0; i < d_; ++i) {
    basis[static_cast<std::size_t>(i)] = field.mul(q_, std::uint64_t{1} << i);
  }
  // T_k[b] = T_k[b & (b-1)] ^ q * x^(8k + ctz b): one XOR per entry.
  const std::size_t n = static_cast<std::size_t>(bytes_) * 256;
  auto tables = std::make_shared<std::uint64_t[]>(n);  // zero-filled
  for (int k = 0; k < bytes_; ++k) {
    std::uint64_t* t = tables.get() + static_cast<std::size_t>(k) * 256;
    for (unsigned b = 1; b < 256; ++b) {
      t[b] = t[b & (b - 1)] ^
             basis[static_cast<std::size_t>(8 * k + std::countr_zero(b))];
    }
  }
  tables_ = std::move(tables);
}

}  // namespace waves::gf2
