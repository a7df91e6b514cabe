#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/ensure.h"
#include "common/random.h"

namespace geored {
namespace {

/// Restores the global pool to its default size when a test exits.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::set_global_thread_count(0); }
};

TEST(ThreadPool, DefaultThreadCountReadsEnvironment) {
  ::setenv("GEORED_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ::setenv("GEORED_THREADS", "0", 1);  // clamped up to 1
  EXPECT_EQ(ThreadPool::default_thread_count(), 1u);
  ::setenv("GEORED_THREADS", "-4", 1);  // clamped up to 1
  EXPECT_EQ(ThreadPool::default_thread_count(), 1u);
  ::setenv("GEORED_THREADS", "999999", 1);  // clamped down to 1024
  EXPECT_EQ(ThreadPool::default_thread_count(), 1024u);
  // Garbage is an error, never a silent fallback to the hardware count.
  for (const char* bad : {"not-a-number", "4x", " 4", "4.0", "0x10"}) {
    ::setenv("GEORED_THREADS", bad, 1);
    EXPECT_THROW(ThreadPool::default_thread_count(), std::invalid_argument) << bad;
  }
  ::setenv("GEORED_THREADS", "", 1);  // empty reads as unset
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ::unsetenv("GEORED_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, RunChunksRunsEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  constexpr std::size_t kChunks = 97;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.run_chunks(kChunks, [&](std::size_t c) { hits[c].fetch_add(1); });
  for (std::size_t c = 0; c < kChunks; ++c) EXPECT_EQ(hits[c].load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::size_t ran = 0;
  pool.run_chunks(5, [&](std::size_t) { ++ran; });  // no workers: caller does all
  EXPECT_EQ(ran, 5u);
}

TEST(ThreadPool, ExceptionIsRethrownAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(16,
                               [&](std::size_t c) {
                                 if (c == 7) throw std::runtime_error("chunk failure");
                               }),
               std::runtime_error);
  // All chunks of a later task still run.
  std::vector<std::atomic<int>> hits(8);
  pool.run_chunks(8, [&](std::size_t c) { hits[c].fetch_add(1); });
  for (std::size_t c = 0; c < 8; ++c) EXPECT_EQ(hits[c].load(), 1);
}

TEST(ThreadPool, ReplacingBusyGlobalPoolFailsLoudly) {
  GlobalPoolGuard guard;
  ThreadPool::set_global_thread_count(2);
  // Swapping the global pool out from under an in-flight task must throw
  // (use-after-free otherwise); the task's exception surfaces to the caller.
  EXPECT_THROW(ThreadPool::global().run_chunks(
                   8, [](std::size_t) { ThreadPool::set_global_thread_count(4); }),
               InternalError);
}

TEST(ThreadPool, IdleFromInsideChunkReportsBusyWithoutDeadlock) {
  // idle() takes the pool mutex, which drain() releases around every chunk
  // body — so a chunk may ask "is the pool idle" without self-deadlocking,
  // and the answer while any task is in flight is no. The test proves the
  // no-deadlock half by completing at all, and the answer half by counting.
  ThreadPool pool(3);
  std::atomic<int> saw_busy{0};
  pool.run_chunks(6, [&](std::size_t) {
    if (!pool.idle()) saw_busy.fetch_add(1);
  });
  EXPECT_EQ(saw_busy.load(), 6);
  EXPECT_TRUE(pool.idle());
}

TEST(ThreadPool, ReplacingGlobalPoolRacedFromAnotherThreadThrows) {
  GlobalPoolGuard guard;
  ThreadPool::set_global_thread_count(3);
  // The cross-thread variant of ReplacingBusyGlobalPoolFailsLoudly: one
  // thread holds chunks in flight while another tries to swap the pool.
  // The swap must throw InternalError — destroying the busy pool would
  // leave the runner's run_chunks using freed memory.
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  std::thread runner([&] {
    ThreadPool::global().run_chunks(3, [&](std::size_t) {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  // Any chunk having started proves run_chunks is committed (task_ set).
  while (started.load() == 0) std::this_thread::yield();
  EXPECT_THROW(ThreadPool::set_global_thread_count(2), InternalError);
  release.store(true);
  runner.join();
  // Quiescent again: the swap must now succeed.
  ThreadPool::set_global_thread_count(2);
  EXPECT_EQ(ThreadPool::global().thread_count(), 2u);
}

TEST(ThreadPool, ParallelForCoversRangeWithoutOverlap) {
  GlobalPoolGuard guard;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool::set_global_thread_count(threads);
    for (const std::size_t n : {0u, 1u, 3u, 1000u}) {
      std::vector<int> counts(n, 0);
      parallel_for(n, [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        for (std::size_t i = begin; i < end; ++i) ++counts[i];
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 1) << "i=" << i;
    }
  }
}

TEST(ThreadPool, MinParallelGateForcesSingleChunk) {
  GlobalPoolGuard guard;
  ThreadPool::set_global_thread_count(4);
  std::atomic<int> calls{0};
  parallel_for(
      10,
      [&](std::size_t begin, std::size_t end) {
        calls.fetch_add(1);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
      },
      /*min_parallel=*/100);
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ReduceSumBitIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  Rng rng(101);
  std::vector<double> values(5000);
  for (auto& v : values) v = rng.uniform(-1.0, 1.0);
  const auto run = [&] {
    return parallel_reduce_sum(values.size(), [&](std::size_t begin, std::size_t end) {
      double partial = 0.0;
      for (std::size_t i = begin; i < end; ++i) partial += values[i];
      return partial;
    });
  };
  // The fixed chunk grid makes the summation tree a function of n alone:
  // every thread count produces the same bits, not merely close values.
  ThreadPool::set_global_thread_count(1);
  const double at_one = run();
  for (const std::size_t threads : {2u, 3u, 4u, 7u}) {
    ThreadPool::set_global_thread_count(threads);
    EXPECT_EQ(run(), at_one) << threads << " threads";  // byte-identical
  }
  double sequential = 0.0;
  for (const double v : values) sequential += v;
  EXPECT_NEAR(at_one, sequential, 1e-9 * (std::abs(sequential) + 1.0));
}

TEST(ThreadPool, ReduceSumBelowMinParallelIsExactlySequential) {
  GlobalPoolGuard guard;
  ThreadPool::set_global_thread_count(4);
  Rng rng(303);
  std::vector<double> values(100);
  for (auto& v : values) v = rng.uniform(-1.0, 1.0);
  double sequential = 0.0;
  for (const double v : values) sequential += v;
  const double reduced = parallel_reduce_sum(
      values.size(),
      [&](std::size_t begin, std::size_t end) {
        double partial = 0.0;
        for (std::size_t i = begin; i < end; ++i) partial += values[i];
        return partial;
      },
      /*min_parallel=*/2048);
  EXPECT_EQ(reduced, sequential);  // single body(0, n) call, bit-exact
}

TEST(ThreadPool, ReduceSumReproducibleAtFixedThreadCount) {
  GlobalPoolGuard guard;
  ThreadPool::set_global_thread_count(4);
  Rng rng(202);
  std::vector<double> values(5000);
  for (auto& v : values) v = rng.uniform(-1.0, 1.0);
  const auto run = [&] {
    return parallel_reduce_sum(values.size(), [&](std::size_t begin, std::size_t end) {
      double partial = 0.0;
      for (std::size_t i = begin; i < end; ++i) partial += values[i];
      return partial;
    });
  };
  const double first = run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(run(), first);  // bit-reproducible
  // And within accumulation noise of the sequential order.
  double sequential = 0.0;
  for (const double v : values) sequential += v;
  EXPECT_NEAR(first, sequential, 1e-9 * (std::abs(sequential) + 1.0));
}

TEST(ThreadPool, ReduceSumCountsExactlyUnderContention) {
  GlobalPoolGuard guard;
  ThreadPool::set_global_thread_count(4);
  constexpr std::size_t kN = 100000;
  const double total = parallel_reduce_sum(kN, [](std::size_t begin, std::size_t end) {
    return static_cast<double>(end - begin);
  });
  EXPECT_EQ(total, static_cast<double>(kN));
}

}  // namespace
}  // namespace geored
