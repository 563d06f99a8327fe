// Mutation fuzzing for the trace reader: a valid WriteTrace output with
// bytes flipped, cut, inserted or its header fields swapped must either
// parse or fail with an InvalidArgument Status, never crash or read out of
// bounds. A mutant that parses writes back out as a trace that reads back
// the same.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/trace_generator.h"
#include "src/trace/trace_io.h"
#include "tests/test_env.h"

namespace oasis {
namespace {

std::string ValidTrace(size_t users, DayKind kind, uint64_t seed) {
  TraceGenerator generator(TraceGeneratorConfig{}, seed);
  TraceFile trace;
  trace.kind = kind;
  trace.users = generator.GenerateTraceSet(users, kind);
  std::ostringstream out;
  EXPECT_TRUE(WriteTrace(out, trace).ok());
  return out.str();
}

// The [begin, end) offsets of the whitespace-separated fields on the first
// line of `text`.
std::vector<std::pair<size_t, size_t>> HeaderFields(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> fields;
  const size_t line_end = std::min(text.find('\n'), text.size());
  for (size_t i = 0; i < line_end;) {
    if (text[i] == ' ') {
      ++i;
      continue;
    }
    const size_t begin = i;
    while (i < line_end && text[i] != ' ') {
      ++i;
    }
    fields.emplace_back(begin, i);
  }
  return fields;
}

// One to four edits of `text`: a bit flip, a truncation, an insertion of
// bytes the format uses (and a few it does not), or a swap of two header
// fields.
std::string Mutate(std::string text, Rng& rng) {
  static constexpr char kInsertable[] = "01 \n\r\t-+x9OASISTRACEv1weekdayend\xff";
  const uint64_t edits = 1 + rng.NextBelow(4);
  for (uint64_t e = 0; e < edits; ++e) {
    switch (rng.NextBelow(4)) {
      case 0:
        if (!text.empty()) {
          text[rng.NextBelow(text.size())] ^= static_cast<char>(1u << rng.NextBelow(8));
        }
        break;
      case 1:
        text.resize(rng.NextBelow(text.size() + 1));
        break;
      case 2: {
        std::string bytes(1 + rng.NextBelow(16), '\0');
        for (char& c : bytes) {
          c = kInsertable[rng.NextBelow(sizeof(kInsertable) - 1)];
        }
        text.insert(rng.NextBelow(text.size() + 1), bytes);
        break;
      }
      default: {
        const std::vector<std::pair<size_t, size_t>> fields = HeaderFields(text);
        if (fields.size() < 2) {
          break;
        }
        size_t a = rng.NextBelow(fields.size());
        size_t b = rng.NextBelow(fields.size() - 1);
        b += b >= a ? 1 : 0;
        if (a > b) {
          std::swap(a, b);
        }
        const auto [a_begin, a_end] = fields[a];
        const auto [b_begin, b_end] = fields[b];
        text = text.substr(0, a_begin) + text.substr(b_begin, b_end - b_begin) +
               text.substr(a_end, b_begin - a_end) + text.substr(a_begin, a_end - a_begin) +
               text.substr(b_end);
        break;
      }
    }
  }
  return text;
}

TEST(TraceIoFuzzTest, MutatedTracesParseOrFailWithAStatus) {
  const std::string valid = ValidTrace(6, DayKind::kWeekday, 11);
  Rng rng(20160418);
  const int trials = testing::FuzzTrials(3000);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string mutant = Mutate(valid, rng);
    std::istringstream in(mutant);
    StatusOr<TraceFile> read = ReadTrace(in);
    if (!read.ok()) {
      ++rejected;
      EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument) << "trial " << trial;
      EXPECT_FALSE(read.status().message().empty()) << "trial " << trial;
      continue;
    }
    ++parsed;
    ASSERT_FALSE(read->users.empty()) << "trial " << trial;
    std::stringstream again;
    ASSERT_TRUE(WriteTrace(again, *read).ok()) << "trial " << trial;
    StatusOr<TraceFile> reread = ReadTrace(again);
    ASSERT_TRUE(reread.ok()) << "trial " << trial << ": " << reread.status().ToString();
    EXPECT_EQ(reread->kind, read->kind) << "trial " << trial;
    EXPECT_EQ(reread->users, read->users) << "trial " << trial;
  }
  // The full-depth run reaches both outcomes.
  if (trials == 3000) {
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
  }
}

}  // namespace
}  // namespace oasis
