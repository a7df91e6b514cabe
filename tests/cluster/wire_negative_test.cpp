// Negative and fuzz coverage for the hardened summary wire decode: a real
// transport (src/net/) can deliver truncated, oversized-count, or bit-flipped
// frames, and MicroClusterSummarizer::deserialize_clusters must answer every
// such frame with a typed WireFormatError — never undefined behavior, a
// gigabyte allocation, or silently corrupt clusters. The randomized sweeps
// honor GEORED_FUZZ_ITERS like the other fuzz budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "cluster/summarizer.h"
#include "common/env.h"
#include "common/random.h"
#include "common/serialize.h"

namespace geored::cluster {
namespace {

/// A well-formed frame to mutate: a few clusters of a 2-D population.
std::vector<std::uint8_t> good_frame(std::uint64_t seed) {
  Rng rng(seed);
  SummarizerConfig config;
  config.max_clusters = 4;
  MicroClusterSummarizer summarizer(config);
  for (int i = 0; i < 50; ++i) {
    summarizer.add(Point{rng.normal(0.0, 20.0), rng.normal(100.0, 20.0)},
                   rng.uniform(0.0, 5.0));
  }
  ByteWriter writer;
  write_clusters(writer, summarizer.clusters());
  return writer.bytes();
}

std::vector<MicroCluster> decode(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes);
  return MicroClusterSummarizer::deserialize_clusters(reader);
}

TEST(WireNegative, GoodFrameDecodes) {
  EXPECT_FALSE(decode(good_frame(1)).empty());
}

TEST(WireNegative, EveryTruncationThrowsTyped) {
  const auto frame = good_frame(2);
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode(cut), WireFormatError) << "kept " << keep << " bytes";
  }
}

TEST(WireNegative, OversizedClusterCountThrowsBeforeAllocating) {
  auto frame = good_frame(3);
  // The leading u32 is the cluster count; claim ~4 billion clusters. The
  // decoder must reject the count against the bytes present, not reserve.
  const std::uint32_t huge = 0xfffffffe;
  std::memcpy(frame.data(), &huge, sizeof huge);
  EXPECT_THROW(decode(frame), WireFormatError);
}

TEST(WireNegative, OversizedVectorLengthThrowsBeforeAllocating) {
  auto frame = good_frame(4);
  // First cluster's sum-vector length lives after count(u32) + cluster
  // header (u64 count + f64 weight). Claim 500 million doubles.
  const std::size_t offset = 4 + 8 + 8;
  ASSERT_GT(frame.size(), offset + 4);
  const std::uint32_t huge = 500'000'000;
  std::memcpy(frame.data() + offset, &huge, sizeof huge);
  EXPECT_THROW(decode(frame), WireFormatError);
}

TEST(WireNegative, NegativeWeightThrows) {
  auto frame = good_frame(5);
  const std::size_t offset = 4 + 8;  // first cluster's weight
  const double negative = -1.0;
  std::memcpy(frame.data() + offset, &negative, sizeof negative);
  EXPECT_THROW(decode(frame), WireFormatError);
}

TEST(WireNegative, NonFiniteMomentThrows) {
  auto frame = good_frame(6);
  const std::size_t offset = 4 + 8 + 8 + 4;  // first double of the sum vector
  ASSERT_GT(frame.size(), offset + 8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(frame.data() + offset, &nan, sizeof nan);
  EXPECT_THROW(decode(frame), WireFormatError);
}

TEST(WireNegative, WireFormatErrorIsInvalidArgument) {
  // Existing recovery paths catch std::invalid_argument; the typed error
  // must stay inside that hierarchy.
  const auto frame = good_frame(7);
  const std::vector<std::uint8_t> cut(frame.begin(), frame.begin() + 3);
  EXPECT_THROW(decode(cut), std::invalid_argument);
}

/// Randomized bit-flip sweep: flipping any single bit of a good frame must
/// either decode (the flip hit a benign mantissa/count bit) or throw
/// WireFormatError — nothing else. Under asan/ubsan this doubles as a
/// memory-safety proof for hostile frames.
void run_bitflip_fuzz(std::uint64_t seed) {
  const auto frame = good_frame(seed);
  Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = frame;
    const std::size_t byte = rng.below(mutated.size());
    const int bit = static_cast<int>(rng.below(8));
    mutated[byte] = static_cast<std::uint8_t>(mutated[byte] ^ (1u << bit));
    try {
      const auto clusters = decode(mutated);
      // Decoded fine: the mutation stayed within the representable set.
      (void)clusters;
    } catch (const WireFormatError&) {
      // The one acceptable failure mode.
    }
  }
}

/// Random-garbage sweep: arbitrary byte strings must decode or throw typed,
/// and the empty buffer in particular must throw (no count to read).
void run_garbage_fuzz(std::uint64_t seed) {
  Rng rng(seed * 131 + 17);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      (void)decode(garbage);
    } catch (const WireFormatError&) {
    }
  }
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, SingleBitFlipsDecodeOrThrowTyped) { run_bitflip_fuzz(GetParam()); }
TEST_P(WireFuzz, RandomGarbageDecodesOrThrowsTyped) { run_garbage_fuzz(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range<std::uint64_t>(1, 11));

// Runtime-tunable extended sweep, mirroring SummarizerFuzzBudget: CI's
// sanitizer job raises GEORED_FUZZ_ITERS for a deeper hunt.
TEST(WireFuzzBudget, ExtendedRandomSweep) {
  const std::uint64_t iters = env_count("GEORED_FUZZ_ITERS", 5);
  for (std::uint64_t seed = 2000; seed < 2000 + iters; ++seed) {
    run_bitflip_fuzz(seed);
    run_garbage_fuzz(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace geored::cluster
