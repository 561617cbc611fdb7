#include "store/crc32.hpp"

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>

namespace plinger::store {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables.  kTables[0] is the bytewise table; kTables[t][b]
/// advances byte b's contribution past t more zero bytes, so one step
/// folds eight bytes with eight independent lookups instead of a chain
/// of eight dependent ones.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::span<const unsigned char> data,
                    std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = data.data();
  std::size_t n = data.size();
  // The word loads read the bytes in memory order only on a
  // little-endian host; elsewhere every byte takes the bytewise loop.
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = kTables;
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo = 0, hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_doubles(std::span<const double> values,
                            std::uint32_t seed) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  return crc32({bytes, values.size_bytes()}, seed);
}

}  // namespace plinger::store
