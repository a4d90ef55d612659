// Counting global operator new for the allocation gates in tests/alloc/.
// alloc_counter.cc replaces the global allocation functions, so every file
// linked with it is counted; it is built into its own test binary.

#ifndef RECYCLEDB_TESTS_ALLOC_ALLOC_COUNTER_H_
#define RECYCLEDB_TESTS_ALLOC_ALLOC_COUNTER_H_

#include <cstdint>

namespace recycledb::alloc_test {

/// Heap allocations made through operator new since the process started.
uint64_t AllocCount();

}  // namespace recycledb::alloc_test

#endif  // RECYCLEDB_TESTS_ALLOC_ALLOC_COUNTER_H_
