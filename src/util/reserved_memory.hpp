// Memory reserved up front and filled on first use: the packet slab and the
// matching table.
//
// The region is an anonymous mapping: nothing is written when it is made,
// and a page costs nothing until it is first touched. A region of at least
// one huge page is aligned to one and asks for transparent huge pages (only
// advice: where THP is off the region keeps 4 KiB pages). Its entries in
// use then sit behind a few TLB entries, and in physically contiguous 2 MiB
// runs, wherever the kernel places them; the price is that the first touch
// of a huge page commits all of it.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>

namespace lci::util {

class reserved_memory_t {
 public:
  static constexpr std::size_t huge_page_size = std::size_t{2} << 20;

  explicit reserved_memory_t(std::size_t bytes) {
    const bool huge = bytes >= huge_page_size;
    // Slack to align the start to a huge page.
    map_bytes_ = (bytes == 0 ? 1 : bytes) + (huge ? huge_page_size : 0);
    map_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map_ == MAP_FAILED) throw std::bad_alloc();
    auto start = reinterpret_cast<uintptr_t>(map_);
    if (huge) {
      start = (start + huge_page_size - 1) & ~(huge_page_size - 1);
#ifdef MADV_HUGEPAGE
      ::madvise(reinterpret_cast<void*>(start), bytes, MADV_HUGEPAGE);
#endif
    }
    data_ = reinterpret_cast<char*>(start);
  }
  ~reserved_memory_t() { ::munmap(map_, map_bytes_); }
  reserved_memory_t(const reserved_memory_t&) = delete;
  reserved_memory_t& operator=(const reserved_memory_t&) = delete;

  // Page aligned; huge-page aligned when the region spans a huge page.
  char* data() const noexcept { return data_; }

 private:
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  char* data_ = nullptr;
};

}  // namespace lci::util
