// The benchmark's workloads: seeded relations, the per-connection command
// cycles a closed-loop client sends, and every reply's expected counts,
// computed in-process from the same inputs (tuple counts from hashops,
// passes and pulses from an embedded Engine or Machine on the workload's
// device).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "relational/relation.h"
#include "relational/op_specs.h"
#include "system/machine.h"
#include "system/transaction.h"
#include "util/result.h"

namespace systolic {
namespace perfbench {

/// What a reply must show to pass the output check.
struct Expect {
  enum class Kind {
    kOk,         ///< an OK verdict whose output contains `marker`
    kStep,       ///< "N tuples, P passes, Q pulses" equal to the fields
    kLoaded,     ///< "-- loaded <name>: N tuples"
    kCommitted,  ///< "-- planner: measured Q pulses" (BEGIN...COMMIT)
  };
  Kind kind = Kind::kOk;
  std::string marker;
  size_t tuples = 0;
  size_t passes = 0;
  size_t pulses = 0;
};

struct Request {
  std::string line;
  Expect expect;
};

/// One closed-loop operation: `timed` requests go out back to back and the
/// latency runs from the first send to the last verified reply; `after`
/// (RELEASEs) is untimed housekeeping. Every `print_every`-th time a client
/// runs an operation with a `print_buffer`, it PRINTs that buffer before the
/// housekeeping and compares the payload byte for byte.
struct Operation {
  std::string name;
  std::vector<Request> timed;
  std::vector<Request> after;
  std::string print_buffer;
  std::string expected_print;
};

struct ClientPlan {
  std::string role;
  /// Sent once per connection during set-up (SET ..., LOADs).
  std::vector<Request> setup;
  std::vector<Operation> cycle;
};

/// One relational operation over named inputs, in the form shared by the
/// command text, the direct Engine call and the hashops floor.
struct OpCall {
  enum class Kind { kSelect, kUnion, kJoin, kIntersect, kDifference, kDedup,
                    kDivide };
  Kind kind = Kind::kIntersect;
  std::string a;
  std::string b;
  /// SELECT: c0 < constant.
  int64_t constant = 0;
};

const char* OpKindName(OpCall::Kind kind);

/// "INTERSECT a b -> out" etc.
std::string CommandText(const OpCall& call, const std::string& out);

using RelationMap = std::map<std::string, rel::Relation>;

/// Appends `call` as one step writing `out` to `txn`.
void AppendStep(const OpCall& call, const std::string& out,
                machine::Transaction* txn);

/// Runs `call` on `engine`.
Result<db::EngineResult> RunEngine(const db::Engine& engine,
                                   const OpCall& call,
                                   const RelationMap& relations);

/// Runs `call` with the hash-based software operators (the floor). SELECT
/// has no hashops form and is a plain filter.
Result<rel::Relation> RunHash(const OpCall& call,
                              const RelationMap& relations);

struct WorkloadShape {
  std::string name;
  size_t chips = 1;
  /// Device grid rows (0 = untiled).
  size_t rows = 0;
  /// "fast" or "rtl" (SET BACKEND on every connection).
  std::string backend = "fast";
  bool durable = false;
  /// Durable workloads: the server host checkpoints every this many group
  /// commits.
  size_t checkpoint_every = 0;
  /// PRINT every n-th printable operation of each client.
  size_t print_every = 8;
};

struct Workload {
  WorkloadShape shape;
  /// Everything the server is seeded with at start-up.
  RelationMap relations;
  std::vector<ClientPlan> clients;
  /// The calls the per-layer replay times directly (one per engine op kind
  /// the workload's relations support), and the engine device they run on.
  std::vector<OpCall> layer_calls;
  db::DeviceConfig device;
  /// The three-step BEGIN...COMMIT transaction over the workload's
  /// relations (served on tiled_txn, replayed into the planner everywhere):
  /// each step's call and output buffer.
  std::vector<std::pair<OpCall, std::string>> txn_steps;
};

/// The shape of `name`; NotFound for an unknown workload.
Result<WorkloadShape> ShapeOf(const std::string& name);

/// Generates `name`'s relations from `seed` (the timed part of set-up).
Result<RelationMap> GenerateRelations(const WorkloadShape& shape,
                                      uint64_t seed);

/// Builds the client plans with their expectations (untimed: this is the
/// output checker, not the system under test).
Result<Workload> BuildWorkload(const WorkloadShape& shape,
                               RelationMap relations);

/// The private-machine configuration the embedded replays use for `device`
/// (enough memory modules for every buffer a workload names).
machine::MachineConfig MachineFor(const db::DeviceConfig& device);

}  // namespace perfbench
}  // namespace systolic

#endif  // PERFBENCH_WORKLOAD_H_
