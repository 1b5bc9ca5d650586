// Experiment E24 — the fast-path executor (src/fastpath) vs the pulse-level
// RTL simulator, and vs the software hash operators as a floor.
//
// Runs the same large relational operations on two engines over an
// identical device shape — backend rtl (cycle-accurate simulation) and
// backend fast (hash probes and plain loops with analytic pulse counts) —
// and reports, per operation:
//
//   * wall-clock time for both backends and the speedup ratio,
//   * wall-clock time of the matching rel::hashops call (the floor the fast
//     backend is judged against; selection has none) and fast/floor,
//   * the pulse count from both (asserted identical: the analytic-timing
//     contract),
//   * bit-identical result relations (asserted).
//
// The acceptance bar: the aggregate wall-clock speedup across the sweep
// must be >= 5x (>= 2x in `--smoke`, where the shrunken operands leave
// less simulation to skip). Every case lands in BENCH_bench_fastpath.json
// twice — backend "rtl" and backend "fast" — which is what
// scripts/check_bench_regression.py uses to hold the fast/rtl wall ratio.
//
// `--smoke` shrinks the sweep for CI.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_util.h"
#include "core/engine.h"
#include "fastpath/backend.h"
#include "relational/ops_hash.h"

namespace {

using namespace systolic;
using systolic::bench::MakePair;
using systolic::bench::Unwrap;
using db::DeviceConfig;
using db::Engine;
using db::EngineResult;

double WallNs(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  systolic::bench::JsonWriter json("bench_fastpath");
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t n = smoke ? 192 : 1024;
  const size_t join_n = smoke ? 96 : 384;

  const rel::Schema schema = rel::MakeIntSchema(3);
  const rel::RelationPair pair = MakePair(schema, n, n, 0.3, 61);
  const rel::RelationPair join_pair =
      MakePair(rel::MakeIntSchema(2), join_n, join_n, 0.3, 62);
  const rel::Relation divisor = Unwrap(join_pair.b.ProjectColumns({1}));

  DeviceConfig device;  // unbounded grid: one tile, maximal simulation
  Engine rtl(device);
  device.backend = fastpath::BackendPolicy::kFast;
  Engine fast(device);

  std::printf("=== E24: fast-path executor vs RTL simulation (n=%zu, "
              "join n=%zu) ===\n",
              n, join_n);
  std::printf("%-12s %-12s %-12s %-12s %-12s %-10s %-10s\n", "op", "pulses",
              "rtl_ms", "fast_ms", "floor_ms", "speedup", "fast/floor");

  double rtl_total_ns = 0;
  double fast_total_ns = 0;
  // `floor` is the rel::hashops call computing the same relation; null for
  // operations the hash operators do not cover.
  const auto run_case =
      [&](const char* name,
          const std::function<Result<EngineResult>(Engine&)>& body,
          const std::function<Result<rel::Relation>()>& floor) {
        const auto rtl_start = std::chrono::steady_clock::now();
        const EngineResult rtl_run = Unwrap(body(rtl));
        const double rtl_ns = WallNs(rtl_start);
        const auto fast_start = std::chrono::steady_clock::now();
        const EngineResult fast_run = Unwrap(body(fast));
        const double fast_ns = WallNs(fast_start);
        SYSTOLIC_CHECK(rtl_run.relation.tuples() == fast_run.relation.tuples())
            << name << ": fast path diverged from the RTL simulation";
        SYSTOLIC_CHECK(rtl_run.stats.cycles == fast_run.stats.cycles)
            << name << ": analytic pulse count " << fast_run.stats.cycles
            << " != simulated " << rtl_run.stats.cycles;
        rtl_total_ns += rtl_ns;
        fast_total_ns += fast_ns;
        char floor_ms[32] = "—";
        char fast_over_floor[32] = "—";
        if (floor) {
          const auto floor_start = std::chrono::steady_clock::now();
          Unwrap(floor());
          const double floor_ns = WallNs(floor_start);
          std::snprintf(floor_ms, sizeof floor_ms, "%.3f", floor_ns / 1e6);
          std::snprintf(fast_over_floor, sizeof fast_over_floor, "%.2f",
                        fast_ns / floor_ns);
        }
        // printf pads by bytes; the 3-byte em dash fills one column.
        const int floor_width = floor ? 12 : 14;
        std::printf("%-12s %-12zu %-12.3f %-12.3f %-*s %-10.1f %s\n", name,
                    rtl_run.stats.cycles, rtl_ns / 1e6, fast_ns / 1e6,
                    floor_width, floor_ms, rtl_ns / fast_ns, fast_over_floor);
        json.Case(name, static_cast<double>(rtl_run.stats.cycles), rtl_ns,
                  "rtl");
        json.Case(name, static_cast<double>(fast_run.stats.cycles), fast_ns,
                  "fast");
      };

  const rel::JoinSpec eq{{0}, {0}, rel::ComparisonOp::kEq};
  const rel::JoinSpec lt{{0}, {0}, rel::ComparisonOp::kLt};
  const rel::DivisionSpec by_second{{1}, {0}};
  run_case(
      "intersect", [&](Engine& e) { return e.Intersect(pair.a, pair.b); },
      [&] { return rel::hashops::Intersection(pair.a, pair.b); });
  run_case(
      "subtract", [&](Engine& e) { return e.Subtract(pair.a, pair.b); },
      [&] { return rel::hashops::Difference(pair.a, pair.b); });
  run_case(
      "dedup", [&](Engine& e) { return e.RemoveDuplicates(pair.a); },
      [&] { return rel::hashops::RemoveDuplicates(pair.a); });
  run_case(
      "join_eq",
      [&](Engine& e) { return e.Join(join_pair.a, join_pair.b, eq); },
      [&] { return rel::hashops::Join(join_pair.a, join_pair.b, eq); });
  run_case(
      "join_lt",
      [&](Engine& e) { return e.Join(join_pair.a, join_pair.b, lt); },
      [&] { return rel::hashops::Join(join_pair.a, join_pair.b, lt); });
  run_case(
      "divide",
      [&](Engine& e) { return e.Divide(join_pair.a, divisor, by_second); },
      [&] { return rel::hashops::Division(join_pair.a, divisor, by_second); });
  run_case(
      "select",
      [&](Engine& e) {
        return e.Select(pair.a, {{0, rel::ComparisonOp::kLt, 512},
                                 {2, rel::ComparisonOp::kGe, 16}});
      },
      nullptr);

  const double speedup = rtl_total_ns / fast_total_ns;
  const double bar = smoke ? 2.0 : 5.0;
  std::printf("\naggregate speedup %.1fx (>= %.0fx asserted)\n", speedup, bar);
  SYSTOLIC_CHECK(speedup >= bar)
      << "fast-path aggregate speedup " << speedup
      << "x fell below the " << bar << "x bar";
  std::printf("all cases bit-identical with identical pulse counts\n");
  return 0;
}
