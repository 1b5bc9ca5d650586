// Tests for the annotated lock-discipline layer (DESIGN S27 / §2.10):
// util::Mutex / util::MutexLock / util::CondVar semantics, and the
// debug-build lock-order checker that dies deterministically on any
// acquisition inverting the documented hierarchy.

#include "util/mutex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace systolic {
namespace util {
namespace {

TEST(LockRankTest, NamesAreCanonical) {
  EXPECT_STREQ(LockRankName(LockRank::kServer), "server");
  EXPECT_STREQ(LockRankName(LockRank::kScheduler), "scheduler");
  EXPECT_STREQ(LockRankName(LockRank::kSharedCatalog), "shared-catalog");
  EXPECT_STREQ(LockRankName(LockRank::kChipHealth), "chip-health");
  EXPECT_STREQ(LockRankName(LockRank::kWal), "wal");
  EXPECT_STREQ(LockRankName(LockRank::kLeaf), "leaf");
}

TEST(MutexTest, LockUnlockAndScopedLock) {
  Mutex mu(LockRank::kLeaf, "test");
  EXPECT_EQ(mu.rank(), LockRank::kLeaf);
  EXPECT_STREQ(mu.name(), "test");
  mu.Lock();
  mu.AssertHeld();
  mu.Unlock();
  {
    MutexLock lock(&mu);
    mu.AssertHeld();
  }
  // Relockable scope: Unlock/Lock mid-scope (the group-commit leader's
  // drop-the-lock-around-IO pattern), destructor releasing either way.
  {
    MutexLock lock(&mu);
    lock.Unlock();
    lock.Lock();
    mu.AssertHeld();
  }
  {
    MutexLock lock(&mu);
    lock.Unlock();
    // Destructor must not unlock again.
  }
  mu.Lock();  // would deadlock if the scope above had left it held
  mu.Unlock();
}

TEST(MutexTest, GuardsCrossThreadCounter) {
  Mutex mu(LockRank::kLeaf, "counter");
  int counter = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(CondVarTest, PredicateWaitSeesNotification) {
  Mutex mu(LockRank::kLeaf, "cv");
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVarTest, WaitForReportsTimeoutAndNotification) {
  Mutex mu(LockRank::kLeaf, "cv");
  CondVar cv;
  {
    MutexLock lock(&mu);
    // Nobody notifies: the wait must time out (and re-acquire the mutex).
    EXPECT_TRUE(cv.WaitFor(&mu, std::chrono::milliseconds(5)));
    mu.AssertHeld();
  }
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) {
      // Generous timeout: a notification must land as "not timed out"
      // long before it expires.
      if (cv.WaitFor(&mu, std::chrono::seconds(30))) break;
    }
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVarTest, WaitReleasesMutexWhileSleeping) {
  Mutex mu(LockRank::kLeaf, "cv");
  CondVar cv;
  bool woken = false;
  std::thread sleeper([&] {
    MutexLock lock(&mu);
    while (!woken) cv.Wait(&mu);
  });
  // If Wait failed to release the mutex this Lock would deadlock; bounded
  // by the test harness timeout rather than asserting on timing.
  for (;;) {
    MutexLock lock(&mu);
    woken = true;
    cv.NotifyAll();
    break;
  }
  sleeper.join();
}

TEST(LockOrderTest, DescendingRanksAreLegal) {
  // server -> shared-catalog -> wal is the real core nesting (AttachV2 under
  // the server mutex consulting recovered acks; SharedCatalog::Open reading
  // the durable catalog's counters).
  Mutex server(LockRank::kServer, "server");
  Mutex catalog(LockRank::kSharedCatalog, "shared-catalog");
  Mutex wal(LockRank::kWal, "wal");
  MutexLock a(&server);
  MutexLock b(&catalog);
  MutexLock c(&wal);
  server.AssertHeld();
  catalog.AssertHeld();
  wal.AssertHeld();
}

using LockOrderDeathTest = ::testing::Test;

TEST(LockOrderDeathTest, InversionDiesDeterministically) {
  if (!LockOrderChecksEnabled()) {
    GTEST_SKIP() << "lock-order checker is compiled out (NDEBUG build); "
                    "the clang -Wthread-safety CI lane still proves the "
                    "static discipline";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Acquiring the scheduler mutex while holding the WAL mutex points UP the
  // hierarchy — the checker must die naming the inversion, without needing
  // a second thread to actually deadlock against.
  EXPECT_DEATH(
      {
        Mutex wal(LockRank::kWal, "wal");
        Mutex scheduler(LockRank::kScheduler, "scheduler");
        MutexLock inner(&wal);
        MutexLock outer(&scheduler);
      },
      "lock-order inversion");
}

TEST(LockOrderDeathTest, EqualRankIsAnInversionToo) {
  if (!LockOrderChecksEnabled()) {
    GTEST_SKIP() << "lock-order checker is compiled out (NDEBUG build)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Two same-rank mutexes can form an AB/BA cycle the strict order cannot;
  // self-recursion is the degenerate case of the same bug.
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kLeaf, "leaf-a");
        Mutex b(LockRank::kLeaf, "leaf-b");
        MutexLock la(&a);
        MutexLock lb(&b);
      },
      "lock-order inversion");
}

TEST(LockOrderDeathTest, AssertHeldDiesWhenNotHeld) {
  if (!LockOrderChecksEnabled()) {
    GTEST_SKIP() << "lock-order checker is compiled out (NDEBUG build)";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "unheld");
        mu.AssertHeld();
      },
      "AssertHeld");
}

}  // namespace
}  // namespace util
}  // namespace systolic
