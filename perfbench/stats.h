// Pure helpers of the end-to-end benchmark: percentiles and the tail
// sample-count rule, the parser for command replies, and span bookkeeping
// with self-time arithmetic. No I/O beyond SpanRecorder::WriteJsonl, so the
// self-test binary covers all of it.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace systolic {
namespace perfbench {

/// The `p`-th percentile (0..100) of `values` by linear interpolation
/// between closest ranks (numpy's default). 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

/// Samples strictly above the `p`-th percentile of an `n`-sample set:
/// floor(n * (100 - p) / 100).
size_t SamplesBeyond(size_t n, double p);

/// The highest of the percentiles 99.9, 99, 90 and 50 that keeps at least
/// ten samples beyond it in an `n`-sample set; 0 when even the median has
/// fewer than ten beyond it (n < 20).
double TailPercentileFor(size_t n);

/// One reported metric; `note` (sample count, inputs) goes only to the
/// human-readable report.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

/// Counts a relational command's reply reports on its summary line
/// "-- <op> -> <out>: N tuples, P passes, Q pulses[ ...]".
struct StepCounts {
  size_t tuples = 0;
  size_t passes = 0;
  size_t pulses = 0;
};

/// Finds the first summary line in `output`; false when none parses.
bool ParseStepLine(const std::string& output, StepCounts* counts);

/// "-- loaded <name>: N tuples".
bool ParseLoadedLine(const std::string& output, size_t* tuples);

/// "-- planner: measured Q pulses" (a COMMIT through the planner).
bool ParseMeasuredPulses(const std::string& output, size_t* pulses);

/// One timed interval. Spans of one client request share `request_id`
/// (the protocol-v2 id; 0 for in-process layer replays); `parent` is the id
/// of the span that caused this one (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of `span`: its duration minus the part of its interval covered
/// by its direct children in `spans` (overlapping children count once,
/// parts outside the parent are clipped).
int64_t SelfTimeNs(const Span& span, const std::vector<Span>& spans);

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// Keeps spans in memory; written out once when the run ends. Thread-safe.
class SpanRecorder {
 public:
  /// Opens a span and returns its id; close it with End.
  uint64_t Begin(const std::string& name, uint64_t parent,
                 uint64_t request_id = 0) EXCLUDES(mutex_);
  void End(uint64_t id) EXCLUDES(mutex_);

  std::vector<Span> spans() const EXCLUDES(mutex_);

  /// One JSON object per line; false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable util::Mutex mutex_{util::LockRank::kLeaf, "perfbench-spans"};
  std::vector<Span> spans_ GUARDED_BY(mutex_);
};

/// Shortest round-trip decimal for a finite double ("null" otherwise).
std::string JsonNumber(double value);

/// `text` as a JSON string literal.
std::string JsonString(const std::string& text);

}  // namespace perfbench
}  // namespace systolic

#endif  // PERFBENCH_STATS_H_
