#include "stats.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace systolic {
namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  // Integer arithmetic in tenths of a percent keeps 99.9 exact.
  const auto tenths = static_cast<size_t>(std::llround((100.0 - p) * 10.0));
  return n * tenths / 1000;
}

double TailPercentileFor(size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

namespace {

// Parses the unsigned integer that ends right before `suffix` at `pos`
// (e.g. the "12" of "12 tuples"); advances `pos` past the suffix.
bool NumberBefore(const std::string& line, const std::string& suffix,
                  size_t* pos, size_t* value) {
  const size_t at = line.find(suffix, *pos);
  if (at == std::string::npos || at == 0) return false;
  size_t begin = at;
  while (begin > 0 && line[begin - 1] >= '0' && line[begin - 1] <= '9') {
    --begin;
  }
  if (begin == at) return false;
  const auto parsed = std::from_chars(line.data() + begin, line.data() + at,
                                      *value);
  if (parsed.ec != std::errc()) return false;
  *pos = at + suffix.size();
  return true;
}

}  // namespace

bool ParseStepLine(const std::string& output, StepCounts* counts) {
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("-- ", 0) != 0) continue;
    const size_t arrow = line.find(" -> ");
    if (arrow == std::string::npos) continue;
    const size_t colon = line.find(": ", arrow);
    if (colon == std::string::npos) continue;
    size_t pos = colon + 2;
    StepCounts parsed;
    if (NumberBefore(line, " tuples, ", &pos, &parsed.tuples) &&
        NumberBefore(line, " passes, ", &pos, &parsed.passes) &&
        NumberBefore(line, " pulses", &pos, &parsed.pulses)) {
      *counts = parsed;
      return true;
    }
  }
  return false;
}

bool ParseLoadedLine(const std::string& output, size_t* tuples) {
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("-- loaded ", 0) != 0) continue;
    size_t pos = line.find(": ");
    if (pos == std::string::npos) continue;
    if (NumberBefore(line, " tuples", &pos, tuples)) return true;
  }
  return false;
}

bool ParseMeasuredPulses(const std::string& output, size_t* pulses) {
  static const std::string kPrefix = "-- planner: measured ";
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kPrefix, 0) != 0) continue;
    size_t pos = kPrefix.size();
    if (NumberBefore(line, " pulses", &pos, pulses)) return true;
  }
  return false;
}

int64_t SelfTimeNs(const Span& span, const std::vector<Span>& spans) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& child : spans) {
    if (child.parent != span.id || child.id == span.id) continue;
    const int64_t lo = std::max(child.start_ns, span.start_ns);
    const int64_t hi = std::min(child.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t busy = 0;
  int64_t cursor = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const int64_t from = std::max(lo, cursor);
    if (hi > from) {
      busy += hi - from;
      cursor = hi;
    }
  }
  return (span.end_ns - span.start_ns) - busy;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t request_id) {
  const int64_t now = NowNs();
  util::MutexLock lock(&mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = name;
  span.request_id = request_id;
  span.start_ns = now;
  span.end_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  const int64_t now = NowNs();
  util::MutexLock lock(&mutex_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  util::MutexLock lock(&mutex_);
  return spans_;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans()) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"name\": " << JsonString(span.name)
        << ", \"request_id\": " << span.request_id
        << ", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
}  // namespace systolic
