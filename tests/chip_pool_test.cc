// ParallelFor: the host threads behind multi-chip tiled execution. Covered
// here: full task coverage under atomic claiming across worker counts,
// exception propagation (deterministic lowest-tile-first), deterministic
// engine output under adversarial tile timing — the properties that keep
// parallel execution bit-identical to serial — and the thread footprint:
// modeled chips cost no host threads until an operation runs, and then at
// most min(chips, host threads).

#include "core/chips.h"

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "relational/generator.h"
#include "system/machine.h"
#include "test_util.h"
#include "util/mutex.h"

namespace systolic {
namespace db {
namespace {

TEST(ChipPoolTest, EveryTaskRunsOnceAcrossWorkerCounts) {
  for (size_t workers :
       {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
    std::vector<std::atomic<int>> runs(10);
    ParallelFor(runs.size(), workers, [&](size_t task) { runs[task]++; });
    for (size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "workers " << workers << " task " << i;
    }
  }
}

TEST(ChipPoolTest, ZeroTasksIsANoOp) {
  ParallelFor(0, 3, [](size_t) { FAIL() << "no task should run"; });
}

TEST(ChipPoolTest, EveryTaskRunsExactlyOnce) {
  constexpr size_t kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  ParallelFor(kTasks, 4, [&](size_t task) { runs[task].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ChipPoolTest, ReusableAcrossManyBatches) {
  std::atomic<size_t> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    ParallelFor(7, 3, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 350u);
}

TEST(ChipPoolTest, MoreChipsThanTasks) {
  std::atomic<size_t> total{0};
  ParallelFor(2, 8, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 2u);
}

TEST(ChipPoolTest, WorkerExceptionPropagatesToCaller) {
  std::atomic<size_t> completed{0};
  EXPECT_THROW(ParallelFor(16, 2,
                           [&](size_t task) {
                             if (task == 9) {
                               throw std::runtime_error("chip fault");
                             }
                             completed.fetch_add(1);
                           }),
               std::runtime_error);
  // Every non-throwing task still ran: one fault does not strand the batch.
  EXPECT_EQ(completed.load(), 15u);
}

TEST(ChipPoolTest, LowestTileExceptionWinsDeterministically) {
  for (int round = 0; round < 10; ++round) {
    try {
      ParallelFor(12, 4, [&](size_t task) {
        // Several tiles fault; higher tiles fault *sooner* (no sleep), so a
        // naive first-to-fail rule would report tile 11. ParallelFor must
        // still surface tile 3's exception.
        if (task == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          throw std::runtime_error("tile 3");
        }
        if (task == 11) throw std::runtime_error("tile 11");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "tile 3");
    }
  }
}

TEST(ChipPoolTest, PoolUsableAfterException) {
  EXPECT_THROW(ParallelFor(4, 2,
                           [](size_t task) {
                             if (task == 0) throw std::runtime_error("fault");
                           }),
               std::runtime_error);
  std::atomic<size_t> total{0};
  ParallelFor(4, 2, [&](size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 4u);
}

TEST(ChipPoolTest, ResultsLandInTileSlotsUnderAdversarialTiming) {
  // Later tiles finish first (sleep inversely proportional to index); the
  // per-slot discipline must still leave result i in slot i.
  constexpr size_t kTasks = 12;
  std::vector<size_t> slots(kTasks, SIZE_MAX);
  ParallelFor(kTasks, 4, [&](size_t task) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(200 * (kTasks - task)));
    slots[task] = task * task;
  });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(slots[i], i * i);
  }
}

// --- Engine-level determinism: with many chips racing over a tiled
// workload, every repetition must produce byte-identical output and summed
// stats equal to the serial engine's. ---

TEST(ChipPoolTest, EngineOutputDeterministicAcrossRepetitions) {
  const rel::Schema schema = rel::MakeIntSchema(2);
  rel::PairOptions options;
  options.base.num_tuples = 60;
  options.base.domain_size = 12;
  options.base.seed = 321;
  options.b_num_tuples = 60;
  options.overlap_fraction = 0.5;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  DeviceConfig serial_config;
  serial_config.rows = 9;  // marching capacity 5: 12x12 = 144 tiles
  Engine serial(serial_config);
  auto expected = serial.Intersect(pair->a, pair->b);
  ASSERT_OK(expected);

  DeviceConfig parallel_config = serial_config;
  parallel_config.num_chips = 7;
  Engine parallel(parallel_config);
  for (int round = 0; round < 5; ++round) {
    auto got = parallel.Intersect(pair->a, pair->b);
    ASSERT_OK(got);
    EXPECT_EQ(got->relation.tuples(), expected->relation.tuples());
    EXPECT_EQ(got->stats.passes, expected->stats.passes);
    EXPECT_EQ(got->stats.cycles, expected->stats.cycles);
    EXPECT_EQ(got->stats.busy_cell_cycles, expected->stats.busy_cell_cycles);
    // The critical path shrinks with chips, and is itself deterministic.
    EXPECT_LT(got->stats.makespan_cycles, got->stats.cycles);
  }
  EXPECT_EQ(expected->stats.makespan_cycles, expected->stats.cycles);
}

// --- Concurrent calls (DESIGN S24): sessions of the server each run their
// own ParallelFor; the calls share nothing but the host. ---

TEST(ChipPoolTest, ConcurrentBatchesAllCompleteWithFullCoverage) {
  constexpr size_t kCallers = 6;
  constexpr size_t kTasks = 32;
  std::vector<std::vector<std::atomic<int>>> runs(kCallers);
  for (auto& batch : runs) {
    batch = std::vector<std::atomic<int>>(kTasks);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&runs, c] {
      ParallelFor(kTasks, 4,
                  [&runs, c](size_t task) { runs[c][task].fetch_add(1); });
    });
  }
  for (std::thread& thread : callers) thread.join();
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(runs[c][t].load(), 1) << "caller " << c << " task " << t;
    }
  }
}

TEST(ChipPoolTest, ExceptionInOneBatchLeavesConcurrentBatchIntact) {
  std::atomic<size_t> clean_total{0};
  std::thread faulty([] {
    EXPECT_THROW(ParallelFor(16, 2,
                             [](size_t task) {
                               if (task == 5) {
                                 throw std::runtime_error("chip fault");
                               }
                             }),
                 std::runtime_error);
  });
  std::thread clean([&clean_total] {
    ParallelFor(16, 2, [&clean_total](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      clean_total.fetch_add(1);
    });
  });
  faulty.join();
  clean.join();
  EXPECT_EQ(clean_total.load(), 16u);
}

TEST(ChipPoolTest, ShortBatchIsNotStarvedByLongBatch) {
  // Each call runs on threads of its own, so a 4-task call started beside a
  // 200-task call returns long before the big one drains.
  std::atomic<size_t> long_done{0};
  std::atomic<size_t> long_done_when_short_finished{SIZE_MAX};
  std::thread long_caller([&] {
    ParallelFor(200, 2, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      long_done.fetch_add(1);
    });
  });
  std::thread short_caller([&] {
    // Give the long call a head start so it is already running.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ParallelFor(4, 2, [](size_t) {});
    long_done_when_short_finished = long_done.load();
  });
  long_caller.join();
  short_caller.join();
  EXPECT_LT(long_done_when_short_finished.load(), 200u)
      << "short call waited for the whole long call";
}

// --- Thread footprint: chips are modeled, not started. ---

/// Threads of this process, counted from /proc/self/task.
size_t ThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t threads = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  closedir(dir);
  return threads;
}

TEST(ChipPoolTest, ConstructionAndRebuildsStartNoThreads) {
  const size_t before = ThreadCount();
  ASSERT_GT(before, 0u) << "/proc/self/task is unreadable";

  DeviceConfig device;
  device.rows = 31;
  device.num_chips = 64;
  Engine engine(device);
  EXPECT_EQ(ThreadCount(), before) << "a 64-chip Engine started threads";

  machine::MachineConfig config;
  config.device = device;
  config.device_configs[machine::OpKind::kIntersect] = device;
  config.device_configs[machine::OpKind::kJoin] = device;
  machine::Machine machine(config);
  EXPECT_EQ(ThreadCount(), before) << "a 64-chip Machine started threads";

  for (int rebuild = 0; rebuild < 10; ++rebuild) {
    machine.SetBackendPolicy(rebuild % 2 == 0 ? fastpath::BackendPolicy::kFast
                                              : fastpath::BackendPolicy::kRtl);
    machine.SetMemoryPolicy(rebuild % 2 == 0 ? spad::OverlapPolicy::kOff
                                             : spad::OverlapPolicy::kOn);
  }
  EXPECT_EQ(ThreadCount(), before) << "engine rebuilds started threads";
}

TEST(ChipPoolTest, WorkersCappedByHostThreads) {
  const size_t host = std::max(1u, std::thread::hardware_concurrency());
  util::Mutex mutex(util::LockRank::kLeaf, "thread-ids");
  std::set<std::thread::id> ids;
  std::vector<std::atomic<int>> runs(256);
  ParallelFor(runs.size(), 64, [&](size_t task) {
    runs[task]++;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    util::MutexLock lock(&mutex);
    ids.insert(std::this_thread::get_id());
  });
  for (size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), std::min<size_t>(64, host));
}

TEST(ChipPoolTest, SixtyFourChipsMatchOneChip) {
  const rel::Schema schema = rel::MakeIntSchema(3);
  rel::PairOptions options;
  options.base.num_tuples = 256;
  options.base.domain_size = 16;
  options.base.seed = 64;
  options.b_num_tuples = 256;
  options.overlap_fraction = 0.4;
  auto pair = rel::GenerateOverlappingPair(schema, options);
  ASSERT_OK(pair);

  DeviceConfig one;
  one.rows = 31;  // marching capacity 16: 16 x 16 = 256 tiles
  one.backend = fastpath::BackendPolicy::kFast;
  DeviceConfig many = one;
  many.num_chips = 64;
  auto serial = Engine(one).Intersect(pair->a, pair->b);
  auto parallel = Engine(many).Intersect(pair->a, pair->b);
  auto again = Engine(many).Intersect(pair->a, pair->b);
  ASSERT_OK(serial);
  ASSERT_OK(parallel);
  ASSERT_OK(again);

  const ExecStats& s = serial->stats;
  const ExecStats& p = parallel->stats;
  EXPECT_GE(s.passes, 64u);
  EXPECT_EQ(parallel->relation.tuples(), serial->relation.tuples());
  EXPECT_EQ(p.passes, s.passes);
  EXPECT_EQ(p.cycles, s.cycles);
  EXPECT_EQ(p.busy_cell_cycles, s.busy_cell_cycles);
  EXPECT_EQ(p.num_chips, 64u);

  // The 64-chip makespan is the tile-order greedy schedule of the 1-chip
  // run's passes: each pass goes to the chip that frees up first.
  std::vector<size_t> chip_busy(64, 0);
  for (const spad::DmaEvent& event : s.dma_trace) {
    if (event.command.op != spad::DmaOp::kCompute) continue;
    *std::min_element(chip_busy.begin(), chip_busy.end()) +=
        event.command.cycles;
  }
  EXPECT_EQ(p.makespan_cycles,
            *std::max_element(chip_busy.begin(), chip_busy.end()));
  EXPECT_LT(p.makespan_cycles, s.makespan_cycles);

  // The same DMA commands (tile, op, pulses, bytes), spread over the chips;
  // only the banks each chip's queue alternates between differ.
  const auto commands = [](const ExecStats& stats) {
    std::vector<std::tuple<size_t, int, size_t, double>> out;
    for (const spad::DmaEvent& event : stats.dma_trace) {
      const spad::DmaCommand& c = event.command;
      out.emplace_back(c.tile, static_cast<int>(c.op), c.cycles, c.bytes);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(commands(p), commands(s));
  EXPECT_EQ(p.dma_cycles, s.dma_cycles);
  EXPECT_LT(p.memory_makespan_cycles, s.memory_makespan_cycles);

  // A second 64-chip run reproduces every schedule-derived counter.
  EXPECT_EQ(again->relation.tuples(), serial->relation.tuples());
  EXPECT_EQ(again->stats.makespan_cycles, p.makespan_cycles);
  EXPECT_EQ(again->stats.memory_makespan_cycles, p.memory_makespan_cycles);
  EXPECT_EQ(again->stats.overlap_cycles, p.overlap_cycles);
  EXPECT_EQ(again->stats.dma_trace, p.dma_trace);
}

// --- ChipHealth: the strike/quarantine ledger behind the fault-tolerant
// tile scheduler (DESIGN S20). ---

TEST(ChipHealthTest, StartsAllHealthy) {
  ChipHealth health(4, 3);
  EXPECT_EQ(health.num_chips(), 4u);
  EXPECT_EQ(health.strike_limit(), 3u);
  EXPECT_EQ(health.num_usable(), 4u);
  EXPECT_EQ(health.total_strikes(), 0u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(health.state(c), ChipState::kHealthy);
    EXPECT_TRUE(health.Usable(c));
  }
}

TEST(ChipHealthTest, StrikesEscalateHealthySuspectQuarantined) {
  ChipHealth health(2, 3);
  EXPECT_EQ(health.Strike(0), ChipState::kSuspect);
  EXPECT_EQ(health.state(0), ChipState::kSuspect);
  EXPECT_TRUE(health.Usable(0));
  EXPECT_EQ(health.Strike(0), ChipState::kSuspect);
  EXPECT_EQ(health.Strike(0), ChipState::kQuarantined);
  EXPECT_FALSE(health.Usable(0));
  EXPECT_EQ(health.strikes(0), 3u);
  EXPECT_EQ(health.num_usable(), 1u);
  EXPECT_EQ(health.total_strikes(), 3u);
  // The other chip is untouched.
  EXPECT_EQ(health.state(1), ChipState::kHealthy);
}

TEST(ChipHealthTest, CleanAttemptsForgiveStrikes) {
  // Strikes count CONSECUTIVE failures: a chip suffering transient upsets
  // interleaved with clean attempts never reaches quarantine.
  ChipHealth health(2, 3);
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(health.Strike(0), ChipState::kSuspect);
    EXPECT_EQ(health.Strike(0), ChipState::kSuspect);
    health.ClearStrikes(0);
    EXPECT_EQ(health.state(0), ChipState::kHealthy);
    EXPECT_EQ(health.strikes(0), 0u);
  }
  // Quarantine is permanent: clearing does not resurrect.
  health.Quarantine(1);
  health.ClearStrikes(1);
  EXPECT_EQ(health.state(1), ChipState::kQuarantined);
  EXPECT_EQ(health.num_usable(), 1u);
}

TEST(ChipHealthTest, QuarantineIsImmediateForDeadChips) {
  ChipHealth health(3, 5);
  health.Quarantine(1);
  EXPECT_EQ(health.state(1), ChipState::kQuarantined);
  EXPECT_EQ(health.num_usable(), 2u);
  // Further strikes on a quarantined chip don't resurrect it.
  EXPECT_EQ(health.Strike(1), ChipState::kQuarantined);
}

TEST(ChipHealthTest, PreferredChipRotatesPastQuarantined) {
  ChipHealth health(4, 1);
  EXPECT_EQ(health.PreferredChip(2), std::optional<size_t>(2));
  health.Quarantine(2);
  // Cyclic search: 2 is out, so 3 is next.
  EXPECT_EQ(health.PreferredChip(2), std::optional<size_t>(3));
  health.Quarantine(3);
  // Wraps around past the end.
  EXPECT_EQ(health.PreferredChip(2), std::optional<size_t>(0));
}

TEST(ChipHealthTest, AllQuarantinedLeavesNoPreferredChip) {
  ChipHealth health(2, 1);
  health.Quarantine(0);
  health.Quarantine(1);
  EXPECT_EQ(health.num_usable(), 0u);
  EXPECT_EQ(health.PreferredChip(0), std::nullopt);
  EXPECT_EQ(health.PreferredChip(1), std::nullopt);
}

TEST(ChipHealthTest, ClampsDegenerateShapes) {
  ChipHealth health(0, 0);
  EXPECT_EQ(health.num_chips(), 1u);
  EXPECT_EQ(health.strike_limit(), 1u);
  EXPECT_EQ(health.Strike(0), ChipState::kQuarantined);
}

TEST(ChipHealthTest, StateNamesAreCanonical) {
  EXPECT_STREQ(ChipStateToString(ChipState::kHealthy), "healthy");
  EXPECT_STREQ(ChipStateToString(ChipState::kSuspect), "suspect");
  EXPECT_STREQ(ChipStateToString(ChipState::kQuarantined), "quarantined");
}

}  // namespace
}  // namespace db
}  // namespace systolic
