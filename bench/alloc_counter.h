#ifndef COSTSENSE_BENCH_ALLOC_COUNTER_H_
#define COSTSENSE_BENCH_ALLOC_COUNTER_H_

#include <cstddef>

namespace costsense::bench {

/// Heap allocations (every operator new) the process has made so far.
/// Counted only in binaries that link alloc_counter.cc, which replaces
/// the global operator new/delete family; elsewhere the symbol is absent.
/// Take the difference of two readings around the code of interest.
size_t HeapAllocations();

}  // namespace costsense::bench

#endif  // COSTSENSE_BENCH_ALLOC_COUNTER_H_
