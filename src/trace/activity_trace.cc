#include "src/trace/activity_trace.h"

#include <algorithm>
#include <array>
#include <bit>

namespace oasis {

const char* DayKindName(DayKind kind) {
  return kind == DayKind::kWeekday ? "weekday" : "weekend";
}

void UserDay::SetActiveRange(int begin, int end) {
  for (int i = begin; i < end;) {
    const int word_end = std::min(end, (i / 64 + 1) * 64);
    const unsigned width = static_cast<unsigned>(word_end - i);
    const uint64_t run = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    words_[Word(i)] |= run << Bit(i);
    i = word_end;
  }
}

int UserDay::ActiveIntervals() const {
  int count = 0;
  for (uint64_t word : words_) {
    count += std::popcount(word);
  }
  return count;
}

double UserDay::ActiveFraction() const {
  return static_cast<double>(ActiveIntervals()) / kIntervalsPerDay;
}

int UserDay::LongestIdleRun() const {
  int best = 0;
  int run = 0;
  for (int i = 0; i < kIntervalsPerDay; ++i) {
    if (IsActive(i)) {
      run = 0;
    } else {
      ++run;
      best = std::max(best, run);
    }
  }
  return best;
}

namespace {

// Transposes the 64 x 64 bit matrix whose row r is a[r] (column c = bit c):
// afterwards bit c of a[r] is what bit r of a[c] was. Swaps the off-diagonal
// halves of every 2j x 2j diagonal block, for j = 32, 16, ..., 1.
void Transpose64(std::array<uint64_t, 64>& a) {
  uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((a[k] >> j) ^ a[k | j]) & mask;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

size_t RowWords(size_t vms) { return (vms + 63) / 64; }

std::vector<uint64_t> ActivityRows(const TraceSet& set, size_t vms) {
  const size_t row_words = RowWords(vms);
  std::vector<uint64_t> rows(static_cast<size_t>(kIntervalsPerDay) * row_words, 0);
  std::array<uint64_t, 64> block;
  for (size_t b = 0; b < row_words; ++b) {
    const size_t first = 64 * b;
    const size_t count = std::min<size_t>(64, vms - first);
    for (size_t w = 0; w < UserDay::kWords; ++w) {
      // Row r of the block is VM first + r over intervals 64w .. 64w + 63;
      // transposed, row i is interval 64w + i over the block's VMs.
      for (size_t r = 0; r < 64; ++r) {
        block[r] = r < count ? set[(first + r) % set.size()].words()[w] : 0;
      }
      Transpose64(block);
      const size_t intervals = std::min<size_t>(64, kIntervalsPerDay - 64 * w);
      for (size_t i = 0; i < intervals; ++i) {
        rows[(64 * w + i) * row_words + b] = block[i];
      }
    }
  }
  return rows;
}

int IntervalAt(double hour_of_day) {
  int idx = static_cast<int>(hour_of_day * 3600.0 / kTraceIntervalSeconds);
  return std::clamp(idx, 0, kIntervalsPerDay - 1);
}

double HourOfInterval(int interval) {
  return (static_cast<double>(interval) + 0.5) * kTraceIntervalSeconds / 3600.0;
}

}  // namespace oasis
