// The traced run's per-layer replays: the workload's seeded inputs fed
// straight into each layer's public entry points (wire framing, session,
// command interpreter, machine, planner, engine, chip pool, DMA accounting,
// shared catalog, durability, hashops), each call recorded as a span.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "stats.h"
#include "util/status.h"
#include "workload.h"

namespace systolic {
namespace perfbench {

struct LayerContext {
  const Workload* workload = nullptr;
  SpanRecorder* spans = nullptr;
  /// Scratch directory of the run (under .perfbench_work/).
  std::string work_dir;
  /// The served durable directory (durable workloads), left behind after
  /// the server drained; empty for in-memory workloads.
  std::string durable_dir;
};

/// Runs every layer replay and appends its metrics.
Status RunLayers(const LayerContext& context, std::vector<Metric>* out);

/// Modeled DMA accounting for `tiles` tiles on one chip: one
/// mvin/preload/compute/mvout quadruple per tile, then Schedule().
/// Returns the schedule's makespan (so the work cannot be optimised away).
size_t AccountDmaTiles(size_t tiles);

}  // namespace perfbench
}  // namespace systolic

#endif  // PERFBENCH_LAYERS_H_
