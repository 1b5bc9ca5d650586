// Database machine: the §9 integrated systolic system end to end.
//
// Builds the Fig. 9-1 machine — disk, memory modules and systolic devices on
// a crossbar — loads relations from the (modeled) disk, executes a
// multi-operation transaction with independent steps running concurrently on
// separate devices, and prints the execution report: per-step device cycles,
// modeled compute and crossbar-transfer time, and the serial-vs-concurrent
// makespan.

// Pass `--chips N` to model each systolic device as N chips (§8's
// independent tiles), run on up to N host threads.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "relational/builder.h"
#include "relational/generator.h"
#include "system/machine.h"

namespace {

using systolic::Status;
using systolic::machine::Machine;
using systolic::machine::MachineConfig;
using systolic::machine::OpKind;
using systolic::machine::Transaction;
using systolic::rel::GeneratorOptions;
using systolic::rel::MakeIntSchema;
using systolic::rel::PairOptions;
using systolic::rel::Schema;

Status Run(size_t num_chips) {
  MachineConfig config;
  config.num_memories = 12;
  config.device.rows = 63;  // a real (small) physical array: tiling engages
  config.device.num_chips = num_chips;
  config.device_counts[OpKind::kIntersect] = 2;  // two intersect devices

  Machine machine(config);
  if (num_chips > 1) {
    std::printf("(each device drives %zu parallel chips)\n", num_chips);
  }

  // Populate the disk with three generated relations over one schema.
  const Schema schema = MakeIntSchema(2, "warehouse");
  PairOptions pair_options;
  pair_options.base.num_tuples = 96;
  pair_options.base.domain_size = 64;
  pair_options.base.seed = 7;
  pair_options.b_num_tuples = 96;
  pair_options.overlap_fraction = 0.5;
  SYSTOLIC_ASSIGN_OR_RETURN(auto pair,
                            systolic::rel::GenerateOverlappingPair(
                                schema, pair_options));
  GeneratorOptions g;
  g.num_tuples = 64;
  g.domain_size = 64;
  g.seed = 11;
  SYSTOLIC_ASSIGN_OR_RETURN(auto c, systolic::rel::GenerateRelation(schema, g));

  machine.disk().Put("orders_q1", std::move(pair.a));
  machine.disk().Put("orders_q2", std::move(pair.b));
  machine.disk().Put("flagged", std::move(c));

  // §9: "Initially, the relevant relations are read from disks into
  // memories."
  SYSTOLIC_RETURN_NOT_OK(machine.LoadFromDisk("orders_q1"));
  SYSTOLIC_RETURN_NOT_OK(machine.LoadFromDisk("orders_q2"));
  SYSTOLIC_RETURN_NOT_OK(machine.LoadFromDisk("flagged"));

  // A transaction with two independent first-level steps (they run
  // concurrently on the two intersect devices) and a dependent second level.
  Transaction txn;
  txn.Intersect("orders_q1", "orders_q2", "repeat_orders")
      .Intersect("orders_q1", "flagged", "flagged_q1")
      .Union("repeat_orders", "flagged_q1", "suspicious");

  SYSTOLIC_ASSIGN_OR_RETURN(auto report, machine.Execute(txn));

  std::printf("step  level  op                 device  passes  pulses"
              "   compute(us)  transfer(us)\n");
  for (const auto& step : report.steps) {
    std::printf("%-5zu %-6zu %-18s %-7zu %-7zu %-8zu %-12.2f %-12.2f\n",
                step.step_index, step.level, OpKindToString(step.op),
                step.device_slot, step.exec.passes, step.exec.cycles,
                step.compute_seconds * 1e6, step.transfer_seconds * 1e6);
  }
  std::printf("\nserial time:    %.2f us\n", report.serial_seconds * 1e6);
  std::printf("makespan:       %.2f us  (concurrent devices on the crossbar)\n",
              report.makespan_seconds * 1e6);
  std::printf("crossbar:       %zu configurations, %.0f bytes moved\n",
              report.crossbar_configurations, report.bytes_through_crossbar);
  std::printf("disk I/O time:  %.2f us for %.0f bytes\n",
              machine.disk().total_io_seconds() * 1e6,
              machine.disk().total_bytes());

  // "The final results are eventually returned to the disk."
  SYSTOLIC_RETURN_NOT_OK(machine.WriteBackToDisk("suspicious", "suspicious"));
  SYSTOLIC_ASSIGN_OR_RETURN(auto result, machine.Buffer("suspicious"));
  std::printf("\n'suspicious' result: %zu tuples (written back to disk)\n",
              result->num_tuples());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_chips = 1;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--chips") == 0) {
      num_chips = static_cast<size_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  const Status status = Run(num_chips);
  if (!status.ok()) {
    std::printf("FAILED: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
