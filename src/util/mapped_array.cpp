#include "util/mapped_array.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

namespace nvhalt {

void Unmap::operator()(void* p) const { ::munmap(p, bytes); }

namespace {
constexpr std::size_t kSmallPageBytes = 4096;

void* map_anonymous(std::size_t len) {
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}
}  // namespace

void* map_zeroed(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t len = (bytes + page - 1) / page * page;
  char* p;
  if (len < kHugePageBytes) {
    p = static_cast<char*>(map_anonymous(len));
  } else {
    // Over-map by one huge page and trim both ends, so the array starts on
    // a huge-page boundary: an unaligned start leaves its first and last
    // partial huge pages on 4 KiB pages whatever the advice.
    char* raw = static_cast<char*>(map_anonymous(len + kHugePageBytes));
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::size_t head = ((base + kHugePageBytes - 1) & ~(kHugePageBytes - 1)) - base;
    if (head != 0) ::munmap(raw, head);
    ::munmap(raw + head + len, kHugePageBytes - head);  // head < kHugePageBytes
    p = raw + head;
    // Advisory: fails only where THP is compiled out, which leaves the
    // array on 4 KiB pages.
    (void)::madvise(p, len, MADV_HUGEPAGE);
  }
  for (std::size_t off = 0; off < len; off += kSmallPageBytes)
    static_cast<volatile char*>(p)[off] = 0;
  return p;
}

}  // namespace nvhalt
