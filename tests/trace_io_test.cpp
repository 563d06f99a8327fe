#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/trace/trace_generator.h"

namespace oasis {
namespace {

TEST(TraceIoTest, RoundTripPreservesBits) {
  TraceGenerator gen(TraceGeneratorConfig{}, 5);
  TraceFile original;
  original.kind = DayKind::kWeekend;
  original.users = gen.GenerateTraceSet(25, DayKind::kWeekend);

  std::stringstream ss;
  ASSERT_TRUE(WriteTrace(ss, original).ok());
  StatusOr<TraceFile> loaded = ReadTrace(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->kind, DayKind::kWeekend);
  ASSERT_EQ(loaded->users.size(), original.users.size());
  for (size_t u = 0; u < original.users.size(); ++u) {
    EXPECT_EQ(loaded->users[u], original.users[u]) << "user " << u;
  }
}

TEST(TraceIoTest, EmptyTraceIsRejectedBothWays) {
  TraceFile empty;
  std::stringstream ss;
  EXPECT_EQ(WriteTrace(ss, empty).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ss.str().empty());
  std::stringstream zero("OASISTRACE v1 0 288 weekday\n");
  EXPECT_EQ(ReadTrace(zero).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsUserCountsThatAreNotPositiveIntegers) {
  const std::string body = std::string(288, '0') + "\n";
  for (const char* count : {"0", "-5", "-0", "+1", "1x", "0x1", "1.0", "abc",
                            "99999999999999999999999"}) {
    std::stringstream ss("OASISTRACE v1 " + std::string(count) + " 288 weekday\n" + body);
    EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument) << count;
  }
}

TEST(TraceIoTest, HugeUserCountIsTruncationNotAllocation) {
  // Nothing is sized from the header, so an absurd count fails on the
  // missing lines instead of aborting in an allocation.
  std::stringstream ss("OASISTRACE v1 18446744073709551615 288 weekday\n" +
                       std::string(288, '1') + "\n");
  EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsBadMagic) {
  std::stringstream ss("NOTATRACE v1 1 288 weekday\n");
  EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsWrongIntervalCount) {
  std::stringstream ss("OASISTRACE v1 1 144 weekday\n");
  EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsUnknownDayKind) {
  std::stringstream ss("OASISTRACE v1 1 288 holiday\n");
  EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsTruncatedBody) {
  std::stringstream ss("OASISTRACE v1 2 288 weekday\n" + std::string(288, '0') + "\n");
  EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsBadCharacters) {
  std::string line(288, '0');
  line[7] = 'x';
  std::stringstream ss("OASISTRACE v1 1 288 weekday\n" + line + "\n");
  EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, RejectsShortLine) {
  std::stringstream ss("OASISTRACE v1 1 288 weekday\n0101\n");
  EXPECT_EQ(ReadTrace(ss).status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, PathRoundTrip) {
  TraceGenerator gen(TraceGeneratorConfig{}, 6);
  TraceFile original;
  original.users = gen.GenerateTraceSet(3, DayKind::kWeekday);
  std::string path = ::testing::TempDir() + "/oasis_trace_test.txt";
  ASSERT_TRUE(WriteTraceToPath(path, original).ok());
  StatusOr<TraceFile> loaded = ReadTraceFromPath(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->users.size(), 3u);
}

TEST(TraceIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadTraceFromPath("/nonexistent/path/trace.txt").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace oasis
