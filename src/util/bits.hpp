// Integer bit arithmetic shared by the address decoders, the march engine,
// the MBIST controller and the population model.
#pragma once

#include <bit>

namespace memstress {

/// Address bits needed to index `count` items: the smallest b with
/// 2^b >= count, and 0 for count <= 1. Exact for every long long.
constexpr int ceil_log2(long long count) {
  return count <= 1
             ? 0
             : std::bit_width(static_cast<unsigned long long>(count - 1));
}

}  // namespace memstress
