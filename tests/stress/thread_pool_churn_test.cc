// ThreadPool group churn under multi-submitter load (ctest label `stress`).
//
// The async service multiplies the pool's group traffic: every queued job's
// NewSEA solve opens a task group on the session's shared pool while other
// threads submit more work. This harness drives the pattern directly —
// hundreds of tiny, short-lived groups racing from several submitter
// threads, with seeded sizes, occasional nesting and occasional exceptions —
// and asserts the RunTasks contract holds for every single group: each
// index runs exactly once and the first exception (only) is rethrown.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace dcs {
namespace {

TEST(ThreadPoolChurnTest, HundredsOfTinyGroupsFromManySubmitters) {
  ThreadPool pool(3);
  constexpr size_t kSubmitters = 5;
  constexpr size_t kGroupsPerSubmitter = 300;
  std::atomic<uint64_t> total_runs{0};
  std::atomic<int> contract_failures{0};

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(9000 + t);  // seeded: the churn pattern is reproducible
      for (size_t g = 0; g < kGroupsPerSubmitter; ++g) {
        const size_t size = 1 + rng.NextBounded(8);
        std::vector<std::atomic<int>> hits(size);
        pool.RunTasks(size, [&](size_t i) {
          hits[i].fetch_add(1);
          total_runs.fetch_add(1);
        });
        // RunTasks returned, so every index of this group must have run
        // exactly once — groups from other submitters never bleed in.
        for (size_t i = 0; i < size; ++i) {
          if (hits[i].load() != 1) contract_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(contract_failures.load(), 0);
  EXPECT_GT(total_runs.load(), kSubmitters * kGroupsPerSubmitter);
}

TEST(ThreadPoolChurnTest, NestedGroupsUnderChurnDoNotDeadlockOrLeak) {
  // The pool's nesting contract: outer groups open inner groups on the same
  // pool, from several concurrent submitters.
  ThreadPool pool(2);
  constexpr size_t kSubmitters = 4;
  constexpr size_t kRounds = 60;
  std::atomic<uint64_t> inner_runs{0};

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(4100 + t);
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t outer = 1 + rng.NextBounded(3);
        const size_t inner = 1 + rng.NextBounded(4);
        pool.RunTasks(outer, [&](size_t) {
          pool.RunTasks(inner,
                        [&](size_t) { inner_runs.fetch_add(1); });
        });
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_GT(inner_runs.load(), 0u);
}

TEST(ThreadPoolChurnTest, ExceptionsStayConfinedToTheirGroup) {
  ThreadPool pool(3);
  constexpr size_t kSubmitters = 4;
  constexpr size_t kGroupsPerSubmitter = 120;
  std::atomic<int> wrong_outcomes{0};

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(5300 + t);
      for (size_t g = 0; g < kGroupsPerSubmitter; ++g) {
        const size_t size = 1 + rng.NextBounded(6);
        const bool should_throw = rng.NextBounded(3) == 0;
        const size_t thrower = rng.NextBounded(size);
        std::atomic<size_t> runs{0};
        bool threw = false;
        try {
          pool.RunTasks(size, [&](size_t i) {
            runs.fetch_add(1);
            if (should_throw && i == thrower) {
              throw std::runtime_error("churn");
            }
          });
        } catch (const std::runtime_error&) {
          threw = true;
        }
        // Every index still ran, and the exception surfaced exactly when
        // one was thrown — unrelated groups' errors never cross over.
        if (runs.load() != size || threw != should_throw) {
          wrong_outcomes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(wrong_outcomes.load(), 0);
}

}  // namespace
}  // namespace dcs
