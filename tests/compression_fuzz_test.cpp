// Property/fuzz coverage for the LZ codec: round-trip fidelity over a wide
// spread of sizes and byte distributions, plus decompressor robustness
// against mutated streams (it must reject or produce wrong-size output —
// never crash or read out of bounds).

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/mem/compression.h"
#include "tests/test_env.h"

namespace oasis {
namespace {

std::vector<uint8_t> RandomBuffer(Rng& rng, size_t size, int alphabet) {
  std::vector<uint8_t> out(size);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextBelow(static_cast<uint64_t>(alphabet)));
  }
  return out;
}

class RoundTripSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RoundTripSizeTest, RandomBytesRoundTrip) {
  Rng rng(GetParam() * 977 + 1);
  for (int alphabet : {2, 5, 32, 256}) {
    std::vector<uint8_t> input = RandomBuffer(rng, GetParam(), alphabet);
    auto out = LzDecompress(LzCompress(input), input.size());
    ASSERT_TRUE(out.has_value()) << "size " << GetParam() << " alphabet " << alphabet;
    EXPECT_EQ(*out, input);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoundTripSizeTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129,
                                           1000, 4096, 10000));

TEST(CompressionFuzzTest, StructuredPatternsRoundTrip) {
  Rng rng(7);
  const int trials = testing::FuzzTrials(200);
  for (int trial = 0; trial < trials; ++trial) {
    // Stitch together runs, repeats of earlier content, and noise.
    std::vector<uint8_t> input;
    int segments = 1 + static_cast<int>(rng.NextBelow(8));
    for (int s = 0; s < segments; ++s) {
      switch (rng.NextBelow(3)) {
        case 0: {  // run
          size_t n = 1 + rng.NextBelow(500);
          input.insert(input.end(), n, static_cast<uint8_t>(rng.NextBelow(256)));
          break;
        }
        case 1: {  // self-copy
          if (!input.empty()) {
            size_t start = rng.NextBelow(input.size());
            size_t n = std::min<size_t>(1 + rng.NextBelow(300), input.size() - start);
            // insert may reallocate; copy out first
            std::vector<uint8_t> chunk(input.begin() + static_cast<long>(start),
                                       input.begin() + static_cast<long>(start + n));
            input.insert(input.end(), chunk.begin(), chunk.end());
          }
          break;
        }
        default: {  // noise
          auto noise = RandomBuffer(rng, 1 + rng.NextBelow(300), 256);
          input.insert(input.end(), noise.begin(), noise.end());
        }
      }
    }
    auto out = LzDecompress(LzCompress(input), input.size());
    ASSERT_TRUE(out.has_value()) << "trial " << trial;
    ASSERT_EQ(*out, input) << "trial " << trial;
  }
}

TEST(CompressionFuzzTest, MutatedStreamsNeverCrash) {
  Rng rng(13);
  std::vector<uint8_t> input = RandomBuffer(rng, 2000, 7);
  std::vector<uint8_t> compressed = LzCompress(input);
  const int trials = testing::FuzzTrials(500);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<uint8_t> mutated = compressed;
    int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    // Any outcome is fine except a crash: nullopt, or (rarely) a buffer that
    // happens to still decode to the expected size.
    auto out = LzDecompress(mutated, input.size());
    if (out.has_value()) {
      EXPECT_EQ(out->size(), input.size());
    }
  }
}

TEST(CompressionFuzzTest, TruncatedStreamsNeverCrash) {
  Rng rng(17);
  std::vector<uint8_t> input = RandomBuffer(rng, 4096, 11);
  std::vector<uint8_t> compressed = LzCompress(input);
  for (size_t cut = 0; cut < compressed.size(); cut += 7) {
    std::vector<uint8_t> truncated(compressed.begin(),
                                   compressed.begin() + static_cast<long>(cut));
    auto out = LzDecompress(truncated, input.size());
    if (out.has_value()) {
      EXPECT_EQ(out->size(), input.size());
    }
  }
}

}  // namespace
}  // namespace oasis
