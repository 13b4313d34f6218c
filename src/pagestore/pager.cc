#include "pagestore/pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace cinderella {

StatusOr<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                             size_t page_size) {
  if (page_size < 64 || page_size > 65536) {
    return Status::InvalidArgument("unsupported page size");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open " + path + ": " +
                                   std::strerror(errno));
  }
  return std::unique_ptr<Pager>(new Pager(fd, page_size));
}

Pager::~Pager() { ::close(fd_); }

Status Pager::CheckRange(PageId page) const {
  if (page >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(page) +
                              " out of range");
  }
  return Status::OK();
}

PageId Pager::AllocatePage() {
  if (free_pages_.empty()) return page_count_++;
  const PageId page = free_pages_.back();
  free_pages_.pop_back();
  return page;
}

Status Pager::ReadPage(PageId page, uint8_t* buffer) {
  CINDERELLA_RETURN_IF_ERROR(CheckRange(page));
  const off_t base = static_cast<off_t>(page * page_size_);
  size_t done = 0;
  while (done < page_size_) {
    const ssize_t got = ::pread(fd_, buffer + done, page_size_ - done,
                                base + static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("page read failure: ") +
                              std::strerror(errno));
    }
    if (got == 0) {
      return Status::OutOfRange("page " + std::to_string(page) +
                                " reads short: never written");
    }
    done += static_cast<size_t>(got);
  }
  ++pages_read_;
  return Status::OK();
}

Status Pager::WritePage(PageId page, const uint8_t* buffer) {
  CINDERELLA_RETURN_IF_ERROR(CheckRange(page));
  const off_t base = static_cast<off_t>(page * page_size_);
  size_t done = 0;
  while (done < page_size_) {
    const ssize_t put = ::pwrite(fd_, buffer + done, page_size_ - done,
                                 base + static_cast<off_t>(done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("page write failure: ") +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(put);
  }
  ++pages_written_;
  return Status::OK();
}

void Pager::FreePage(PageId page) {
  CINDERELLA_DCHECK(page < page_count_);
  free_pages_.push_back(page);
}

}  // namespace cinderella
