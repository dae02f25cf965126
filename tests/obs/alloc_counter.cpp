/// Binary-wide replacement of the global allocation functions that counts
/// every operator-new call, read through test_allocation_count(). It lives
/// in its own translation unit so no test body can inline a replaced
/// operator delete and pair its free() with the runtime's operator new
/// (GCC's -Wmismatched-new-delete flags exactly that under sanitizers).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

std::int64_t test_allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too (libstdc++'s stable_sort buffer
// uses them): otherwise the runtime's operator new allocates a block that the
// deletes below release through free(), which ASan reports as an
// alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
