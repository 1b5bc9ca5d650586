// Self-tests of the benchmark's own arithmetic: the reply parser, the
// percentile and tail sample-count rule, and span self time. Checks stay
// active in every build type; exits non-zero on the first failure.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layers.h"
#include "stats.h"

namespace systolic {
namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  EXPECT(Percentile({}, 50) == 0);
  EXPECT(Near(Percentile({7}, 90), 7));
  EXPECT(Near(Median({3, 1, 2}), 2));
  EXPECT(Near(Median({4, 1, 3, 2}), 2.5));
  // numpy.percentile([1..10], 90) == 9.1
  EXPECT(Near(Percentile({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 90), 9.1));
  EXPECT(Near(Percentile({1, 2, 3}, 0), 1));
  EXPECT(Near(Percentile({1, 2, 3}, 100), 3));
}

void TestTailRule() {
  EXPECT(SamplesBeyond(100, 90) == 10);
  EXPECT(SamplesBeyond(99, 90) == 9);
  EXPECT(SamplesBeyond(10000, 99.9) == 10);
  EXPECT(TailPercentileFor(19) == 0);
  EXPECT(TailPercentileFor(20) == 50);
  EXPECT(TailPercentileFor(99) == 50);
  EXPECT(TailPercentileFor(100) == 90);
  EXPECT(TailPercentileFor(999) == 90);
  EXPECT(TailPercentileFor(1000) == 99);
  EXPECT(TailPercentileFor(10000) == 99.9);
}

void TestReplyParser() {
  StepCounts counts;
  EXPECT(ParseStepLine("-- intersect -> o: 12 tuples, 4 passes, 993 pulses "
                       "(fast, analytic)\n",
                       &counts));
  EXPECT(counts.tuples == 12 && counts.passes == 4 && counts.pulses == 993);
  // The summary line may follow other output and carry durability lines.
  EXPECT(ParseStepLine("-- backend: fast\n-- join -> w0s1: 0 tuples, 1 "
                       "passes, 7 pulses\n-- durability: committed 1 "
                       "relation (group commit)\n",
                       &counts));
  EXPECT(counts.tuples == 0 && counts.passes == 1 && counts.pulses == 7);
  EXPECT(!ParseStepLine("-- loaded a: 5 tuples\n", &counts));
  EXPECT(!ParseStepLine("-- x -> y: many tuples, 1 passes, 2 pulses\n",
                        &counts));
  EXPECT(!ParseStepLine("", &counts));

  size_t tuples = 0;
  EXPECT(ParseLoadedLine("-- loaded p0s1: 256 tuples\n", &tuples));
  EXPECT(tuples == 256);
  EXPECT(!ParseLoadedLine("-- stored d as dd\n", &tuples));

  size_t pulses = 0;
  EXPECT(ParseMeasuredPulses(
      "-- planner: rewrites: none; est 8 pulses (naive 21)\n"
      "-- committed 1 steps: serial 8.05 us, makespan 8.05 us, 1 crossbar "
      "configs\n-- planner: measured 7 pulses\n",
      &pulses));
  EXPECT(pulses == 7);
  EXPECT(!ParseMeasuredPulses("-- planner: est 8 pulses\n", &pulses));
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

void TestSelfTime() {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),
      MakeSpan(2, 1, 10, 30),   // child
      MakeSpan(3, 1, 20, 50),   // overlaps child 2: union 10..50
      MakeSpan(4, 1, 90, 120),  // sticks out of the parent: clipped to 10
      MakeSpan(5, 2, 12, 28),   // grandchild: not a direct child of 1
      MakeSpan(6, 0, 0, 10),    // unrelated root
  };
  EXPECT(SelfTimeNs(spans[0], spans) == 100 - 40 - 10);
  EXPECT(SelfTimeNs(spans[1], spans) == 20 - 16);
  EXPECT(SelfTimeNs(spans[5], spans) == 10);

  SpanRecorder recorder;
  const uint64_t root = recorder.Begin("op", 0, 7);
  const uint64_t child = recorder.Begin("request", root, 7);
  recorder.End(child);
  recorder.End(root);
  const std::vector<Span> recorded = recorder.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == recorded[0].id);
  EXPECT(recorded[0].request_id == 7);
  EXPECT(recorded[0].end_ns >= recorded[1].end_ns);
  EXPECT(SelfTimeNs(recorded[0], recorded) >= 0);
}

void TestJson() {
  EXPECT(JsonNumber(0.5) == "0.5");
  EXPECT(JsonNumber(1.0 / 0.0) == "null");
  EXPECT(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
}

void TestDmaLeg() {
  // The makespan of N identical overlapped tiles grows linearly with N.
  const size_t one = AccountDmaTiles(1);
  const size_t many = AccountDmaTiles(100);
  EXPECT(one > 0);
  EXPECT(many > one && many <= 100 * one);
}

}  // namespace
}  // namespace perfbench
}  // namespace systolic

int main() {
  using namespace systolic::perfbench;
  TestPercentile();
  TestTailRule();
  TestReplyParser();
  TestSelfTime();
  TestJson();
  TestDmaLeg();
  if (failures != 0) {
    std::fprintf(stderr, "%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
