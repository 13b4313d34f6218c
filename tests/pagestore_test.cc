// Tests for the paged storage substrate: the slotted-page codec (including
// its decoder over corrupt page bytes), the fd pager and the LRU read
// cache. The cold tier built on them is tested in tiered_store_test.

#include <sys/stat.h>

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "pagestore/buffer_pool.h"
#include "pagestore/page_codec.h"
#include "pagestore/pager.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  for (AttributeId a : attrs) row.Set(a, Value(int64_t{1}));
  return row;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// -- PageCodec -------------------------------------------------------------------

class PageCodecTest : public testing::Test {
 protected:
  PageCodecTest() : codec_(512), page_(512) { codec_.InitPage(page_.data()); }
  PageCodec codec_;
  std::vector<uint8_t> page_;
};

TEST_F(PageCodecTest, EmptyPage) {
  EXPECT_EQ(codec_.SlotCount(page_.data()), 0u);
  EXPECT_GT(codec_.FreeSpace(page_.data()), 480u);
  EXPECT_FALSE(codec_.ReadRow(page_.data(), 0).ok());
}

TEST_F(PageCodecTest, AppendAndReadBack) {
  Row row(42);
  row.Set(1, Value(int64_t{-7}));
  row.Set(2, Value(3.5));
  row.Set(3, Value("slipper"));
  const auto slot = codec_.AppendRow(page_.data(), row);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, 0u);

  auto loaded = codec_.ReadRow(page_.data(), 0);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->id(), 42u);
  EXPECT_EQ(loaded->Get(1)->as_int64(), -7);
  EXPECT_DOUBLE_EQ(loaded->Get(2)->as_double(), 3.5);
  EXPECT_EQ(loaded->Get(3)->as_string(), "slipper");
}

TEST_F(PageCodecTest, EncodedRowSizeMatchesConsumption) {
  Row row(1);
  row.Set(0, Value(int64_t{1}));
  row.Set(1, Value("abc"));
  const size_t before = codec_.FreeSpace(page_.data());
  ASSERT_TRUE(codec_.AppendRow(page_.data(), row).has_value());
  const size_t after = codec_.FreeSpace(page_.data());
  // One slot entry (4 bytes) + payload.
  EXPECT_EQ(before - after, PageCodec::EncodedRowSize(row) + 4);
}

TEST_F(PageCodecTest, FillsUntilFull) {
  int appended = 0;
  while (true) {
    const auto slot =
        codec_.AppendRow(page_.data(), MakeRow(appended, {0, 1, 2}));
    if (!slot.has_value()) break;
    ++appended;
  }
  EXPECT_GT(appended, 5);
  EXPECT_EQ(codec_.SlotCount(page_.data()), appended);
  // Every stored row reads back.
  for (int slot = 0; slot < appended; ++slot) {
    auto row = codec_.ReadRow(page_.data(), static_cast<uint16_t>(slot));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->id(), static_cast<EntityId>(slot));
  }
}

TEST_F(PageCodecTest, OversizedRowRejected) {
  Row fat(1);
  fat.Set(0, Value(std::string(600, 'x')));
  EXPECT_FALSE(codec_.FitsInPage(fat));
  EXPECT_FALSE(codec_.AppendRow(page_.data(), fat).has_value());
  EXPECT_EQ(codec_.SlotCount(page_.data()), 0u);
}

TEST_F(PageCodecTest, CorruptSlotFieldsFailWithStatus) {
  // A page read back from the file is untrusted bytes. Each field that
  // locates a row (the slot count, a slot's offset and its length) is
  // bounded by the decoder and fails with a Status instead of sending it
  // outside the page. One row: the slot directory is the last 4 bytes,
  // slot 0 = uint16 offset at 508, uint16 length at 510.
  ASSERT_TRUE(codec_.AppendRow(page_.data(), MakeRow(7, {0, 1})).has_value());
  ASSERT_TRUE(codec_.ReadRow(page_.data(), 0).ok());
  const std::vector<uint8_t> good = page_;
  const auto set16 = [&](size_t at, uint16_t value) {
    std::memcpy(page_.data() + at, &value, sizeof(value));
  };
  const auto expect_corrupt = [&](uint16_t slot) {
    const StatusOr<Row> row = codec_.ReadRow(page_.data(), slot);
    EXPECT_EQ(row.status().code(), StatusCode::kOutOfRange) << slot;
    page_ = good;
  };

  // Slot count: at most (512 - 4) / 4 = 127 slots fit below the header.
  set16(0, 0xFFFF);
  expect_corrupt(0);
  set16(0, 0xFFFF);
  expect_corrupt(0xFFFE);  // Its entry would sit 255 KiB before the page.
  set16(0, 128);
  expect_corrupt(127);

  // Offset plus length past the slot directory.
  set16(510, 0xFFFF);
  expect_corrupt(0);
  set16(508, 0xFFF0);
  expect_corrupt(0);
  set16(508, 500);  // In the page, but running into the directory.
  expect_corrupt(0);

  // A length below the 10-byte row header (id + cell count).
  set16(510, 9);
  expect_corrupt(0);
  set16(508, 505);
  set16(510, 3);
  expect_corrupt(0);  // Its id would be read across the page's end.

  EXPECT_TRUE(codec_.ReadRow(page_.data(), 0).ok());
}

// -- Pager -----------------------------------------------------------------------

TEST(PagerTest, AllocateWriteReadRoundTrip) {
  auto pager = Pager::Open(TempPath("pager_basic.db"), 512);
  ASSERT_TRUE(pager.ok());
  const PageId page = (*pager)->AllocatePage();
  EXPECT_EQ(page, 0u);

  std::vector<uint8_t> out(512);
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE((*pager)->WritePage(page, out.data()).ok());
  std::vector<uint8_t> in(512, 0);
  ASSERT_TRUE((*pager)->ReadPage(page, in.data()).ok());
  EXPECT_EQ(in, out);
  EXPECT_GE((*pager)->pages_read(), 1u);
}

TEST(PagerTest, OpenStartsAnEmptyFile) {
  // The cold tier is rebuilt from the journal, so a reopened page file
  // starts empty instead of trusting pages a crashed run left behind.
  const std::string path = TempPath("pager_reopen.db");
  {
    auto pager = Pager::Open(path, 512);
    ASSERT_TRUE(pager.ok());
    const PageId page = (*pager)->AllocatePage();
    std::vector<uint8_t> data(512, 0xAB);
    ASSERT_TRUE((*pager)->WritePage(page, data.data()).ok());
  }
  struct stat before;
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  EXPECT_EQ(before.st_size, 512);
  auto reopened = Pager::Open(path, 512);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 0u);
  struct stat after;
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_size, 0);

  EXPECT_FALSE(Pager::Open(path, 32).ok());      // Below the codec's range.
  EXPECT_FALSE(Pager::Open(path, 131072).ok());  // Above 16-bit offsets.
}

TEST(PagerTest, FreeListReusesPages) {
  auto pager = Pager::Open(TempPath("pager_free.db"), 512);
  ASSERT_TRUE(pager.ok());
  const PageId a = (*pager)->AllocatePage();
  const PageId b = (*pager)->AllocatePage();
  EXPECT_NE(a, b);
  (*pager)->FreePage(a);
  EXPECT_EQ((*pager)->free_page_count(), 1u);
  const PageId c = (*pager)->AllocatePage();
  EXPECT_EQ(c, a);  // Reused.
  EXPECT_EQ((*pager)->free_page_count(), 0u);
  EXPECT_EQ((*pager)->page_count(), 2u);
  EXPECT_EQ((*pager)->pages_written(), 0u);  // The free list is in memory.
}

TEST(PagerTest, RejectsBadAccess) {
  auto pager = Pager::Open(TempPath("pager_bad.db"), 512);
  ASSERT_TRUE(pager.ok());
  std::vector<uint8_t> buffer(512);
  EXPECT_FALSE((*pager)->ReadPage(0, buffer.data()).ok());   // Empty file.
  EXPECT_FALSE((*pager)->ReadPage(99, buffer.data()).ok());  // Beyond EOF.
  EXPECT_FALSE((*pager)->WritePage(0, buffer.data()).ok());  // Unallocated.
  // Allocated but never written: reads short instead of returning zeros.
  const PageId page = (*pager)->AllocatePage();
  EXPECT_FALSE((*pager)->ReadPage(page, buffer.data()).ok());
}

// -- BufferPool --------------------------------------------------------------------

class BufferPoolTest : public testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases as parallel processes, and
    // Open truncates.
    const std::string name =
        std::string("pool_") +
        testing::UnitTest::GetInstance()->current_test_info()->name() + ".db";
    auto pager = Pager::Open(TempPath(name.c_str()), 512);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
    for (int i = 0; i < 6; ++i) {
      const PageId page = pager_->AllocatePage();
      std::vector<uint8_t> data(512, static_cast<uint8_t>(page));
      ASSERT_TRUE(pager_->WritePage(page, data.data()).ok());
    }
  }
  std::unique_ptr<Pager> pager_;
};

TEST_F(BufferPoolTest, HitsAndMisses) {
  BufferPool pool(pager_.get(), 3);
  { auto h = pool.Fetch(1); ASSERT_TRUE(h.ok()); }
  { auto h = pool.Fetch(1); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(pager_.get(), 2);
  { auto h = pool.Fetch(1); }
  { auto h = pool.Fetch(2); }
  { auto h = pool.Fetch(1); }  // 1 is now more recent than 2.
  { auto h = pool.Fetch(3); }  // Evicts 2.
  EXPECT_EQ(pool.stats().evictions, 1u);
  { auto h = pool.Fetch(1); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().hits, 2u);  // 1 stayed cached.
}

TEST_F(BufferPoolTest, AllPinnedFails) {
  BufferPool pool(pager_.get(), 2);
  auto a = pool.Fetch(1);
  auto b = pool.Fetch(2);
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = pool.Fetch(3);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kFailedPrecondition);
  a->Release();
  auto d = pool.Fetch(3);
  EXPECT_TRUE(d.ok());
}

TEST_F(BufferPoolTest, DiscardRemovesCleanFrame) {
  BufferPool pool(pager_.get(), 2);
  { auto h = pool.Fetch(1); }
  pool.Discard(1);
  { auto h = pool.Fetch(1); }
  EXPECT_EQ(pool.stats().misses, 2u);  // Re-read after discard.
}

TEST_F(BufferPoolTest, FailedReadGivesItsFrameBack) {
  BufferPool pool(pager_.get(), 1);
  EXPECT_FALSE(pool.Fetch(99).ok());  // Beyond the file.
  auto h = pool.Fetch(4);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->data()[0], 4);
}

}  // namespace
}  // namespace cinderella
