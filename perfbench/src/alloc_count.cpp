// Allocation counting for the benchmark: a strong replacement of the
// global allocation functions. It lives in its own translation unit so the
// compiler never sees a malloc-backed operator new beside the standard
// operator delete.
#include <cstdlib>
#include <new>

#include "obs/profiler.hpp"
#include "probes.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  // Keep the engine profiler's allocation attribution working: this strong
  // replacement pre-empts the profiler's weak one, which ticks this counter.
  qopt::obs::detail::g_profile_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

std::uint64_t perfbench::allocations() noexcept { return g_allocations; }
