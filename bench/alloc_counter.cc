// Replacement global operator new/delete that count allocations, for the
// binaries that measure the warm serving path's heap traffic
// (micro_runtime's BM_WarmDiscovery, tests/serve/warm_alloc_test). Every
// form forwards to malloc/free; the count is one relaxed atomic add.
#include "bench/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_allocations{0};

void* CountedAlloc(size_t size, size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                // aligned_alloc wants a size that is a multiple of align.
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) std::abort();  // out of memory: nothing to count
  return p;
}

}  // namespace

namespace costsense::bench {

size_t HeapAllocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace costsense::bench

void* operator new(size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
