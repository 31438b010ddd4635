#pragma once

// Heap-allocation counter for the traced runs. Linking heap_counter.cpp
// replaces the global operator new/delete of the whole process; only the
// traced binary links it, so the timed runs never pay for the counting.

#include <cstdint>

namespace perfbench::heap {

struct Totals {
  std::uint64_t allocs = 0;  ///< operator new calls
  std::uint64_t bytes = 0;   ///< bytes requested from operator new
};

/// Count allocations from now on (all threads) or stop counting.
void set_counting(bool on);

/// Totals since process start, over every thread.
Totals totals();

}  // namespace perfbench::heap
