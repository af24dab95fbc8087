// Zeroed arrays in their own anonymous mappings, for the large flat tables
// every access indexes: the pool's word images and the lock arrays.
//
// Each array is one mapping, unmapped with its owner. From the malloc heap,
// glibc serves a freed block of up to 32 MB the next time, and whether its
// pages are reused then depends on unrelated allocations, so re-creating a
// pool could leave a second image resident or not.
//
// A mapping of at least one huge page starts on a huge-page boundary and is
// advised MADV_HUGEPAGE, so on a host whose THP mode is `madvise` or
// `always` it is backed by 2 MiB pages: a lookup over a 1 GB image then
// misses the TLB far less often, as on the paper's platform, where DAX maps
// persistent memory with 2 MiB pages. With THP `never` the advice is
// ignored and the array stays on 4 KiB pages. Every page is faulted in at
// construction (one store per 4 KiB page: fresh anonymous pages already
// read zero), so first-touch faults stay in set-up instead of landing in
// the first transactions.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace nvhalt {

/// Unmaps a mapping of `bytes` bytes.
struct Unmap {
  std::size_t bytes;
  void operator()(void* p) const;
};

template <typename T>
using MappedArray = std::unique_ptr<T[], Unmap>;

/// The x86-64 PMD page: the unit transparent huge pages back.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Maps `bytes` (> 0) of zeroed, pre-faulted anonymous memory; huge-page
/// aligned and advised when `bytes >= kHugePageBytes`. Throws std::bad_alloc
/// when the mapping fails. Release with Unmap{bytes}.
void* map_zeroed(std::size_t bytes);

/// `n` elements of T whose initial value is all-zero bytes (integers,
/// std::atomic of an integer, structs of those), in their own mapping. No
/// constructor runs: storing each element's zero again would write every
/// line of the array a second time.
template <typename T>
MappedArray<T> map_zeroed_array(std::size_t n) {
  static_assert(std::is_trivially_destructible_v<T>, "elements are unmapped, never destroyed");
  const std::size_t bytes = n * sizeof(T);
  return MappedArray<T>(static_cast<T*>(map_zeroed(bytes)), Unmap{bytes});
}

}  // namespace nvhalt
