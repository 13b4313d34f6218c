#ifndef CINDERELLA_PAGESTORE_BUFFER_POOL_H_
#define CINDERELLA_PAGESTORE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "pagestore/pager.h"

namespace cinderella {

class BufferPool;

/// Pinned, read-only view of one cached page. Unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle();
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  const uint8_t* data() const;
  PageId page() const { return page_; }

  /// Explicit early unpin.
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, PageId page)
      : pool_(pool), frame_(frame), page_(page) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_ = 0;
};

/// Cache statistics for the benches.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// Fixed-capacity LRU read cache over a Pager. Pages are written straight
/// through the pager, never through the pool, so a frame is never dirty
/// and eviction is free. Whoever rewrites a page id must Discard() its
/// frame first, or a later Fetch() may return the old bytes.
///
/// Pinned frames are never evicted; Fetch fails with FailedPrecondition
/// when every frame is pinned. Single-threaded, like the rest of the
/// engine.
class BufferPool {
 public:
  BufferPool(Pager* pager, size_t capacity_frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page, reading it from the pager on a miss.
  StatusOr<PageHandle> Fetch(PageId page);

  /// Drops a page's frame, if cached (e.g. before its id is freed). The
  /// page must not be pinned.
  void Discard(PageId page);

  const BufferPoolStats& stats() const { return stats_; }
  size_t capacity() const { return frames_.size(); }

 private:
  friend class PageHandle;

  struct Frame {
    PageId page = 0;
    std::vector<uint8_t> data;
    uint32_t pins = 0;
    std::list<size_t>::iterator lru_position;
    bool in_lru = false;
  };

  void Unpin(size_t frame);
  Status EvictOne(size_t* frame_out);

  Pager* pager_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_to_frame_;
  std::list<size_t> lru_;  // Front = least recently used, unpinned only.
  std::vector<size_t> free_frames_;
  BufferPoolStats stats_;
};

}  // namespace cinderella

#endif  // CINDERELLA_PAGESTORE_BUFFER_POOL_H_
