#ifndef CINDERELLA_PAGESTORE_PAGER_H_
#define CINDERELLA_PAGESTORE_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "pagestore/page_codec.h"

namespace cinderella {

/// Fixed-size pages in one file behind one fd, read and written with
/// pread/pwrite. Page `id` lives at byte offset id * page_size.
///
/// The file holds nothing but pages: Open() truncates it, and freed page
/// ids go to an in-memory free list that AllocatePage() reuses. No header,
/// no on-disk free list and no flush: the cold tier is rebuilt from the
/// journal on every open, so nothing reads the file after a restart.
///
/// Counters (pages_read/pages_written) let the benches report physical
/// I/O — the quantity partition pruning saves in the paper's disk-based
/// scenario.
class Pager {
 public:
  /// Creates `path`, truncating any previous file. `page_size` must be in
  /// [64, 65536] (the slotted-page codec's range).
  static StatusOr<std::unique_ptr<Pager>> Open(const std::string& path,
                                               size_t page_size);

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  size_t page_size() const { return page_size_; }

  /// Page ids handed out so far, freed ones included.
  uint64_t page_count() const { return page_count_; }

  /// Page ids on the free list.
  uint64_t free_page_count() const { return free_pages_.size(); }

  uint64_t pages_read() const { return pages_read_; }
  uint64_t pages_written() const { return pages_written_; }

  /// Hands out a page id: the most recently freed one, else the next page
  /// past the end of the file. No I/O; the caller writes the page before
  /// anything reads it.
  PageId AllocatePage();

  /// Reads a page into `buffer` (page_size bytes). A page that was never
  /// written reads short and fails.
  Status ReadPage(PageId page, uint8_t* buffer);

  /// Writes `buffer` (page_size bytes) to the page.
  Status WritePage(PageId page, const uint8_t* buffer);

  /// Returns an allocated page id to the free list. No I/O.
  void FreePage(PageId page);

 private:
  Pager(int fd, size_t page_size) : fd_(fd), page_size_(page_size) {}

  Status CheckRange(PageId page) const;

  int fd_;
  size_t page_size_;
  uint64_t page_count_ = 0;
  std::vector<PageId> free_pages_;
  uint64_t pages_read_ = 0;
  uint64_t pages_written_ = 0;
};

}  // namespace cinderella

#endif  // CINDERELLA_PAGESTORE_PAGER_H_
