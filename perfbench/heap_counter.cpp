#include "perfbench/heap_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

// One cache line per thread slot, so threads counting at once do not share
// a line. Each slot has one writer, so a relaxed load + store counts without
// a locked instruction; threads beyond kSlots would share slots and could
// lose counts, which no workload here comes near.
constexpr unsigned kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
};

Slot g_slots[kSlots];
std::atomic<bool> g_counting{false};
std::atomic<unsigned> g_next_slot{0};

Slot& my_slot() {
  thread_local const unsigned slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  return g_slots[slot];
}

void count(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  Slot& s = my_slot();
  s.allocs.store(s.allocs.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  s.bytes.store(s.bytes.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  count(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  count(n);
  const auto a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n == 0 ? 1 : n) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void set_counting(bool on) {
  g_counting.store(on, std::memory_order_seq_cst);
}

Totals totals() {
  Totals t;
  for (const Slot& s : g_slots) {
    t.allocs += s.allocs.load(std::memory_order_relaxed);
    t.bytes += s.bytes.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perfbench::heap

using perfbench::heap::allocate;
using perfbench::heap::allocate_aligned;

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
