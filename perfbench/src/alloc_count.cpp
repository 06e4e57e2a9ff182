// Counting global allocator for the benchmark binary: every operator new
// bumps a call and byte counter, so the benchmark can report allocations and
// bytes allocated per op. The simulator is single-threaded; the counters are
// plain integers.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::uint64_t g_alloc_count = 0;
std::uint64_t g_alloc_bytes = 0;

/// Returns nullptr on exhaustion; the throwing operators turn that into
/// std::bad_alloc.
void* counted_alloc_nothrow(std::size_t size, std::size_t align) noexcept {
  ++g_alloc_count;
  g_alloc_bytes += size;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  return p;
}

void* counted_alloc(std::size_t size, std::size_t align) {
  void* p = counted_alloc_nothrow(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {
AllocTotals alloc_totals() { return {g_alloc_count, g_alloc_bytes}; }
}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
