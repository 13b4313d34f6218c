#include "pagestore/buffer_pool.h"

#include "common/logging.h"

namespace cinderella {

// -- PageHandle ----------------------------------------------------------------

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_), page_(other.page_) {
  other.pool_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    other.pool_ = nullptr;
  }
  return *this;
}

const uint8_t* PageHandle::data() const {
  CINDERELLA_DCHECK(valid());
  return pool_->frames_[frame_].data.data();
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

// -- BufferPool ----------------------------------------------------------------

BufferPool::BufferPool(Pager* pager, size_t capacity_frames)
    : pager_(pager), frames_(capacity_frames) {
  CINDERELLA_CHECK(pager != nullptr);
  CINDERELLA_CHECK(capacity_frames >= 1);
  for (Frame& frame : frames_) frame.data.resize(pager->page_size());
  free_frames_.reserve(capacity_frames);
  for (size_t i = capacity_frames; i > 0; --i) {
    free_frames_.push_back(i - 1);
  }
}

StatusOr<PageHandle> BufferPool::Fetch(PageId page) {
  auto it = page_to_frame_.find(page);
  if (it != page_to_frame_.end()) {
    ++stats_.hits;
    Frame& frame = frames_[it->second];
    if (frame.in_lru) {
      lru_.erase(frame.lru_position);
      frame.in_lru = false;
    }
    ++frame.pins;
    return PageHandle(this, it->second, page);
  }

  ++stats_.misses;
  size_t slot;
  if (!free_frames_.empty()) {
    slot = free_frames_.back();
    free_frames_.pop_back();
  } else {
    CINDERELLA_RETURN_IF_ERROR(EvictOne(&slot));
  }
  Frame& frame = frames_[slot];
  const Status read = pager_->ReadPage(page, frame.data.data());
  if (!read.ok()) {
    free_frames_.push_back(slot);
    return read;
  }
  frame.page = page;
  frame.pins = 1;
  frame.in_lru = false;
  page_to_frame_[page] = slot;
  return PageHandle(this, slot, page);
}

Status BufferPool::EvictOne(size_t* frame_out) {
  if (lru_.empty()) {
    return Status::FailedPrecondition("all buffer pool frames are pinned");
  }
  const size_t slot = lru_.front();
  lru_.pop_front();
  Frame& frame = frames_[slot];
  frame.in_lru = false;
  CINDERELLA_DCHECK(frame.pins == 0);
  ++stats_.evictions;
  page_to_frame_.erase(frame.page);
  *frame_out = slot;
  return Status::OK();
}

void BufferPool::Unpin(size_t slot) {
  Frame& frame = frames_[slot];
  CINDERELLA_DCHECK(frame.pins > 0);
  if (--frame.pins == 0) {
    lru_.push_back(slot);
    frame.lru_position = std::prev(lru_.end());
    frame.in_lru = true;
  }
}

void BufferPool::Discard(PageId page) {
  auto it = page_to_frame_.find(page);
  if (it == page_to_frame_.end()) return;
  Frame& frame = frames_[it->second];
  CINDERELLA_DCHECK(frame.pins == 0);
  if (frame.in_lru) {
    lru_.erase(frame.lru_position);
    frame.in_lru = false;
  }
  free_frames_.push_back(it->second);
  page_to_frame_.erase(it);
}

}  // namespace cinderella
