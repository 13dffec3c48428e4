// Program-global allocation hooks behind alloc.per_request.
//
// Every replaceable operator-new form is replaced so allocations made
// inside the library are seen too. Counting is switched on and kept per
// thread: a traced run can count one request and not the next, an
// untraced request pays a thread-local load and a branch per allocation,
// and no shared cache line is written from several threads.

#include <cstdlib>
#include <new>

#include "perfbench.h"

namespace perfbench {
namespace {

thread_local bool t_counting = false;
thread_local uint64_t t_allocs = 0;

inline void Count() {
  if (t_counting) ++t_allocs;
}

void* Aligned(std::size_t size, std::align_val_t align) {
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  return posix_memalign(&p, a, size ? size : 1) == 0 ? p : nullptr;
}

}  // namespace

void SetAllocCounting(bool on) { t_counting = on; }

uint64_t ThreadAllocCount() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) {
  perfbench::Count();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::Count();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::Count();
  if (void* p = perfbench::Aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  perfbench::Count();
  return perfbench::Aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
