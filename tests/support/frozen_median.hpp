// Frozen std::nth_element lower median: the independent oracle for the
// radix-select median kernel (DESIGN.md section 20).
//
// This is finalizeCell's median as it was before the kernel replaced
// it. The serial oracle (sh::runSerialOracle) now calls finalizeCell,
// so it shares the kernel under test; this copy does not. Do not
// optimize it: its value is that it stays what it was.
#pragma once

#include <vector>

namespace sidr::testsupport {

/// Element at index (n-1)/2 of `list` in `<` order, found with
/// std::nth_element. Precondition: non-empty and NaN-free (a NaN
/// breaks nth_element's strict-weak-ordering precondition).
double frozenLowerMedian(std::vector<double> list);

}  // namespace sidr::testsupport
