// Unit tests for src/common: status, rng, zipf, histogram, stats, printer,
// env, crc32c.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/env.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/zipf.h"

namespace cinderella {
namespace {

// -- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAlreadyExists),
               "AlreadyExists");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::InvalidArgument("bad"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("hello"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

Status Helper(bool fail) {
  CINDERELLA_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Helper(false).ok());
  EXPECT_EQ(Helper(true).code(), StatusCode::kInternal);
}

// -- Rng ----------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = items;
  rng.Shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, sorted);
}

// -- Zipf ---------------------------------------------------------------------

TEST(ZipfTest, Theta0IsUniform) {
  ZipfSampler zipf(4, 0.0);
  for (size_t k = 0; k < 4; ++k) EXPECT_NEAR(zipf.Pmf(k), 0.25, 1e-12);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(50, 1.1);
  double total = 0.0;
  for (size_t k = 0; k < 50; ++k) total += zipf.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  ZipfSampler zipf(100, 1.0);
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(1));
  EXPECT_GT(zipf.Pmf(1), zipf.Pmf(10));
  EXPECT_GT(zipf.Pmf(10), zipf.Pmf(99));
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfSampler zipf(10, 1.0);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), zipf.Pmf(k), 0.01)
        << "rank " << k;
  }
}

// -- LogHistogram ---------------------------------------------------------------

TEST(LogHistogramTest, BucketsValues) {
  LogHistogram h(1.0, 10.0, 4);  // [1,10) [10,100) [100,1000) [1000,10000)
  h.Add(5.0);
  h.Add(50.0);
  h.Add(55.0);
  h.Add(0.5);      // underflow
  h.Add(1e6);      // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 0u);
}

TEST(LogHistogramTest, TracksMinMax) {
  LogHistogram h(0.001, 2.0, 30);
  h.Add(3.0);
  h.Add(0.25);
  h.Add(7.5);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.25);
  EXPECT_DOUBLE_EQ(h.max_seen(), 7.5);
}

TEST(LogHistogramTest, QuantileApproximation) {
  LogHistogram h(0.1, 1.3, 60);
  for (int i = 1; i <= 1000; ++i) h.Add(i * 0.01);  // 0.01 .. 10
  const double median = h.Quantile(0.5);
  EXPECT_GT(median, 2.0);
  EXPECT_LT(median, 8.0);
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.9));
}

TEST(LogHistogramTest, ToStringRendersBars) {
  LogHistogram h(1.0, 10.0, 3);
  for (int i = 0; i < 5; ++i) h.Add(2.0);
  const std::string out = h.ToString();
  EXPECT_NE(out.find('#'), std::string::npos);
}

// -- Stats ----------------------------------------------------------------------

TEST(StatsTest, EmptySample) {
  const SampleSummary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, SingleValue) {
  const SampleSummary s = Summarize({4.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 4.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.median, 4.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(StatsTest, KnownSample) {
  const SampleSummary s = Summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(StatsTest, QuantileSortedInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.0), 10.0);
}

// -- TablePrinter ------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({std::string("a"), std::string("1")});
  t.AddRow({std::string("long-name"), std::string("2.5")});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinterTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.5, 4), "1.5");
  EXPECT_EQ(TablePrinter::FormatDouble(2.0, 4), "2");
  EXPECT_EQ(TablePrinter::FormatDouble(0.12345, 2), "0.12");
}

// -- Env --------------------------------------------------------------------------

TEST(EnvTest, FallsBackWhenUnset) {
  unsetenv("CINDERELLA_TEST_UNSET");
  EXPECT_EQ(Int64FromEnv("CINDERELLA_TEST_UNSET", 7), 7);
  EXPECT_DOUBLE_EQ(DoubleFromEnv("CINDERELLA_TEST_UNSET", 0.5), 0.5);
  EXPECT_EQ(StringFromEnv("CINDERELLA_TEST_UNSET", "x"), "x");
}

TEST(EnvTest, ParsesValues) {
  setenv("CINDERELLA_TEST_INT", "123", 1);
  setenv("CINDERELLA_TEST_DOUBLE", "2.75", 1);
  EXPECT_EQ(Int64FromEnv("CINDERELLA_TEST_INT", 0), 123);
  EXPECT_DOUBLE_EQ(DoubleFromEnv("CINDERELLA_TEST_DOUBLE", 0.0), 2.75);
  unsetenv("CINDERELLA_TEST_INT");
  unsetenv("CINDERELLA_TEST_DOUBLE");
}

TEST(EnvTest, RejectsGarbage) {
  setenv("CINDERELLA_TEST_BAD", "12x", 1);
  EXPECT_EQ(Int64FromEnv("CINDERELLA_TEST_BAD", 9), 9);
  unsetenv("CINDERELLA_TEST_BAD");
}

// -- CRC32C -----------------------------------------------------------------

std::string Bytes(std::initializer_list<int> values) {
  std::string out;
  for (const int v : values) out.push_back(static_cast<char>(v));
  return out;
}

std::string Ascending32() {
  std::string out;
  for (int i = 0; i < 32; ++i) out.push_back(static_cast<char>(i));
  return out;
}

std::string Descending32() {
  std::string out;
  for (int i = 31; i >= 0; --i) out.push_back(static_cast<char>(i));
  return out;
}

// RFC 3720 section B.4 test vectors, plus the customary check value.
void ExpectRfc3720Vectors(uint32_t (*crc)(std::string_view)) {
  EXPECT_EQ(crc(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc(std::string(32, '\xFF')), 0x62A8AB43u);
  EXPECT_EQ(crc(Ascending32()), 0x46DD794Eu);
  EXPECT_EQ(crc(Descending32()), 0x113FDB5Cu);
  EXPECT_EQ(crc("123456789"), 0xE3069283u);
  EXPECT_EQ(crc(""), 0u);
}

TEST(Crc32cTest, TablePathMatchesRfc3720Vectors) {
  ExpectRfc3720Vectors(Crc32cTable);
}

TEST(Crc32cTest, InstructionPathMatchesRfc3720Vectors) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "this CPU has no crc32 instruction";
  }
  ExpectRfc3720Vectors(Crc32cHardware);
}

TEST(Crc32cTest, DispatchedPathMatchesRfc3720Vectors) {
  ExpectRfc3720Vectors(Crc32c);
}

// Every length from 0 to 257 at every start offset 0-7 covers the word
// loops, their byte tails and misaligned loads on both paths.
TEST(Crc32cTest, PathsAgreeOnEveryLengthAndAlignment) {
  Rng rng(23);
  std::string buffer(8 + 257, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      const uint32_t table = Crc32cTable(data);
      EXPECT_EQ(Crc32c(data), table) << offset << "+" << length;
      if (Crc32cHardwareAvailable()) {
        EXPECT_EQ(Crc32cHardware(data), table) << offset << "+" << length;
      }
    }
  }
}

TEST(Crc32cTest, DetectsEverySingleBitFlip) {
  const std::string pristine = Bytes({0x43, 0x49, 0x4E, 0x44, 0, 1, 2, 3,
                                      0x7F, 0x80, 0xFF, 0x10, 0x20});
  const uint32_t expected = Crc32c(pristine);
  for (size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = pristine;
      flipped[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(flipped), expected) << byte << ":" << bit;
    }
  }
}

}  // namespace
}  // namespace cinderella
