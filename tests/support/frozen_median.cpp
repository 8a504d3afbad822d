#include "support/frozen_median.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace sidr::testsupport {

double frozenLowerMedian(std::vector<double> list) {
  if (list.empty()) {
    throw std::logic_error("median over empty cell");
  }
  std::size_t mid = (list.size() - 1) / 2;
  std::nth_element(list.begin(),
                   list.begin() + static_cast<std::ptrdiff_t>(mid),
                   list.end());
  return list[mid];
}

}  // namespace sidr::testsupport
