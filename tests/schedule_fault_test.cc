// Failure-injection suite: the arrays' internal invariants (t words arriving
// in lock-step with meeting elements, matching tuple tags, single-driver
// wires, one booking per feeder slot) are enforced with fatal checks. These
// tests deliberately violate the input discipline and verify the hardware
// model refuses to produce a wrong answer silently — for the marching
// comparison row, the dedup (lower-triangle) variant, the fixed-B join row
// and the division array's dividend column.
//
// The second half covers the fault-injection subsystem (DESIGN S20): inside
// a faults::FaultScope the same invariants throw a recoverable
// HardwareFault instead of aborting, and the scope's keyed-hash injector
// corrupts wires deterministically while counting every corruption.

#include "arrays/comparison_cell.h"
#include "arrays/comparison_grid.h"
#include "arrays/division_cells.h"
#include "faults/fault_plan.h"
#include "faults/fault_scope.h"
#include "gtest/gtest.h"
#include "relational/builder.h"
#include "systolic/feeder.h"
#include "systolic/simulator.h"
#include "test_util.h"

namespace systolic {
namespace arrays {
namespace {

using rel::Relation;
using rel::Schema;
using systolic::testing::Rel;

// A hand-built one-row comparison array of `m` cells with raw feeders, so a
// test can inject arbitrary (broken) schedules that the public FeedA/FeedB
// drivers would never produce. `edge_rule` selects the §4 (all-true) or §5
// (dedup lower-triangle) initial-t synthesis.
struct RawRow {
  sim::Simulator simulator;
  std::vector<sim::StreamFeeder*> feed_a;
  std::vector<sim::StreamFeeder*> feed_b;

  explicit RawRow(size_t m, EdgeRule edge_rule = EdgeRule::kAllTrue) {
    std::vector<sim::Wire*> a_in(m), a_out(m), b_in(m), b_out(m), t(m + 1);
    for (size_t k = 0; k < m; ++k) {
      a_in[k] = simulator.NewWire("a" + std::to_string(k));
      a_out[k] = simulator.NewWire("A" + std::to_string(k));
      b_in[k] = simulator.NewWire("b" + std::to_string(k));
      b_out[k] = simulator.NewWire("B" + std::to_string(k));
      t[k + 1] = simulator.NewWire("t" + std::to_string(k + 1));
    }
    for (size_t k = 0; k < m; ++k) {
      simulator.AddCell<ComparisonCell>(
          "cmp" + std::to_string(k), rel::ComparisonOp::kEq, edge_rule,
          a_in[k], b_in[k], k == 0 ? nullptr : t[k], a_out[k], b_out[k],
          t[k + 1]);
    }
    for (size_t k = 0; k < m; ++k) {
      feed_a.push_back(simulator.AddInfrastructureCell<sim::StreamFeeder>(
          "fa" + std::to_string(k), a_in[k]));
      feed_b.push_back(simulator.AddInfrastructureCell<sim::StreamFeeder>(
          "fb" + std::to_string(k), b_in[k]));
    }
  }
};

TEST(ScheduleFaultTest, MissingStaggerIsFatal) {
  // All elements of the tuple injected at pulse 0 instead of the required
  // k-skew: element pairs then meet at column k on pulse k+1 WITHOUT the t
  // word of the previous column (which was computed one pulse earlier but
  // for k-1's meeting that happened at the wrong time).
  EXPECT_DEATH(
      {
        RawRow row(3);
        for (size_t k = 0; k < 3; ++k) {
          row.feed_a[k]->ScheduleAt(0, sim::Word::Element(5, 0));
          row.feed_b[k]->ScheduleAt(0, sim::Word::ElementB(5, 0));
        }
        (void)row.simulator.RunUntilQuiescent(100);
      },
      "without a t word|without a meeting pair");
}

TEST(ScheduleFaultTest, CrossedTagsAreFatal) {
  // Two pairs fed so that the t word of pair 0 meets the elements of pair 1
  // in column 1: the tag cross-check fires.
  EXPECT_DEATH(
      {
        RawRow row(2);
        // Pair 0 meets col 0 at pulse 1, col 1 at pulse 2 (correct skew).
        row.feed_a[0]->ScheduleAt(0, sim::Word::Element(5, 0));
        row.feed_b[0]->ScheduleAt(0, sim::Word::ElementB(5, 0));
        // Pair 1's elements placed directly at col 1, pulse 2 — colliding
        // with pair 0's t word arriving there.
        row.feed_a[1]->ScheduleAt(1, sim::Word::Element(7, 1));
        row.feed_b[1]->ScheduleAt(1, sim::Word::ElementB(7, 1));
        (void)row.simulator.RunUntilQuiescent(100);
      },
      "met elements");
}

TEST(ScheduleFaultTest, DedupRowCrossedTagsAreFatal) {
  // The remove-duplicates array differs only in its left-edge t synthesis
  // (§5's strict lower triangle); its interior cells enforce the same tag
  // discipline, so a crossed schedule dies identically.
  EXPECT_DEATH(
      {
        RawRow row(2, EdgeRule::kStrictLowerTriangle);
        row.feed_a[0]->ScheduleAt(0, sim::Word::Element(5, 1));
        row.feed_b[0]->ScheduleAt(0, sim::Word::ElementB(5, 0));
        row.feed_a[1]->ScheduleAt(1, sim::Word::Element(7, 0));
        row.feed_b[1]->ScheduleAt(1, sim::Word::ElementB(7, 1));
        (void)row.simulator.RunUntilQuiescent(100);
      },
      "met elements");
}

TEST(ScheduleFaultTest, DedupRowMissingStaggerIsFatal) {
  EXPECT_DEATH(
      {
        RawRow row(3, EdgeRule::kStrictLowerTriangle);
        for (size_t k = 0; k < 3; ++k) {
          row.feed_a[k]->ScheduleAt(0, sim::Word::Element(5, 1));
          row.feed_b[k]->ScheduleAt(0, sim::Word::ElementB(5, 0));
        }
        (void)row.simulator.RunUntilQuiescent(100);
      },
      "without a t word|without a meeting pair");
}

TEST(ScheduleFaultTest, FeederDoubleBookingIsFatal) {
  // Tuples one pulse apart in marching mode would collide in the feeders'
  // schedule slots before they could corrupt the array.
  EXPECT_DEATH(
      {
        RawRow row(1);
        row.feed_a[0]->ScheduleAt(3, sim::Word::Element(1, 0));
        row.feed_a[0]->ScheduleAt(3, sim::Word::Element(2, 1));
      },
      "double-books");
}

TEST(ScheduleFaultTest, TwoDriversOnOneWireIsFatal) {
  sim::Simulator simulator;
  sim::Wire* shared = simulator.NewWire("shared");
  auto* f1 = simulator.AddInfrastructureCell<sim::StreamFeeder>("f1", shared);
  auto* f2 = simulator.AddInfrastructureCell<sim::StreamFeeder>("f2", shared);
  f1->ScheduleAt(0, sim::Word::Element(1, 0));
  f2->ScheduleAt(0, sim::Word::Element(2, 1));
  EXPECT_DEATH(simulator.Step(), "driven twice");
}

// A raw fixed-B join cell (one non-first column of a fixed-B row): its a and
// t inputs are driven directly by feeders, so the tests can break the
// "t travels in lock-step with a" discipline the real row maintains.
struct RawFixedCell {
  sim::Simulator simulator;
  FixedComparisonCell* cell;
  sim::StreamFeeder* feed_a;
  sim::StreamFeeder* feed_t;

  RawFixedCell() {
    sim::Wire* a_in = simulator.NewWire("a");
    sim::Wire* t_in = simulator.NewWire("t");
    sim::Wire* a_out = simulator.NewWire("A");
    sim::Wire* t_out = simulator.NewWire("T");
    cell = simulator.AddCell<FixedComparisonCell>(
        "fix", rel::ComparisonOp::kEq, EdgeRule::kAllTrue, a_in, t_in, a_out,
        t_out);
    cell->Preload(5, /*b_tag=*/3);
    feed_a = simulator.AddInfrastructureCell<sim::StreamFeeder>("fa", a_in);
    feed_t = simulator.AddInfrastructureCell<sim::StreamFeeder>("ft", t_in);
  }
};

TEST(ScheduleFaultTest, JoinFixedRowElementWithoutTWordIsFatal) {
  EXPECT_DEATH(
      {
        RawFixedCell raw;
        raw.feed_a->ScheduleAt(0, sim::Word::Element(5, 0));
        (void)raw.simulator.RunUntilQuiescent(20);
      },
      "passed without a t word");
}

TEST(ScheduleFaultTest, JoinFixedRowCrossedTagsAreFatal) {
  EXPECT_DEATH(
      {
        RawFixedCell raw;
        // The a element belongs to tuple 1, but the accompanying t word was
        // computed for tuple 0 against a different stored row.
        raw.feed_a->ScheduleAt(0, sim::Word::Element(5, 1));
        raw.feed_t->ScheduleAt(0, sim::Word::Boolean(true, 0, 2));
        (void)raw.simulator.RunUntilQuiescent(20);
      },
      "do not match");
}

TEST(ScheduleFaultTest, JoinFixedRowTWordWithoutElementIsFatal) {
  EXPECT_DEATH(
      {
        RawFixedCell raw;
        raw.feed_t->ScheduleAt(0, sim::Word::Boolean(true, 0, 3));
        (void)raw.simulator.RunUntilQuiescent(20);
      },
      "arrived without an a element");
}

// A raw division gate cell (§7's right dividend column): match results and
// y values are fed directly, so the tests can desynchronise them.
struct RawGateCell {
  sim::Simulator simulator;
  sim::StreamFeeder* feed_y;
  sim::StreamFeeder* feed_match;

  RawGateCell() {
    sim::Wire* y_in = simulator.NewWire("y");
    sim::Wire* y_out = simulator.NewWire("Y");
    sim::Wire* match_in = simulator.NewWire("m");
    sim::Wire* lane_out = simulator.NewWire("lane");
    simulator.AddCell<DividendGateCell>("gate", y_in, y_out, match_in,
                                        lane_out);
    feed_y = simulator.AddInfrastructureCell<sim::StreamFeeder>("fy", y_in);
    feed_match =
        simulator.AddInfrastructureCell<sim::StreamFeeder>("fm", match_in);
  }
};

TEST(ScheduleFaultTest, DivisionMatchWithoutYIsFatal) {
  // The comparison result arrives from the store column but the associated
  // y never does: the gate cannot gate nothing.
  EXPECT_DEATH(
      {
        RawGateCell raw;
        raw.feed_match->ScheduleAt(0, sim::Word::Boolean(true, 0, 0));
        (void)raw.simulator.RunUntilQuiescent(20);
      },
      "without its y");
}

TEST(ScheduleFaultTest, DivisionCrossedDividendPairsAreFatal) {
  // Match result of dividend pair 0 meets the y of pair 1.
  EXPECT_DEATH(
      {
        RawGateCell raw;
        raw.feed_match->ScheduleAt(0, sim::Word::Boolean(true, 0, 0));
        raw.feed_y->ScheduleAt(0, sim::Word::Element(9, 1));
        (void)raw.simulator.RunUntilQuiescent(20);
      },
      "different dividend pairs");
}

TEST(ScheduleFaultTest, CorrectScheduleSurvivesAllChecks) {
  // Control: the same raw row with the proper skew runs to completion.
  RawRow row(3);
  for (size_t k = 0; k < 3; ++k) {
    row.feed_a[k]->ScheduleAt(k, sim::Word::Element(5, 0));
    row.feed_b[k]->ScheduleAt(k, sim::Word::ElementB(5, 0));
  }
  auto cycles = row.simulator.RunUntilQuiescent(100);
  ASSERT_OK(cycles);
}

// --- Fault-injection subsystem: inside a FaultScope the invariants above
// become recoverable, and the scope's injector corrupts words
// deterministically. ---

TEST(InjectedFaultTest, ArmedChecksThrowHardwareFaultInsteadOfAborting) {
  // The same broken stagger that is fatal above throws a catchable
  // HardwareFault when a fault session is active — this is what lets the
  // engine treat an invariant trip on a faulty chip as a detected failure
  // and re-run the tile elsewhere.
  const faults::FaultPlan plan(/*seed=*/1, /*num_chips=*/1);  // zero rates
  faults::FaultScope scope(&plan, /*chip=*/0, /*tile_key=*/0, /*attempt=*/0);
  RawRow row(3);
  for (size_t k = 0; k < 3; ++k) {
    row.feed_a[k]->ScheduleAt(0, sim::Word::Element(5, 0));
    row.feed_b[k]->ScheduleAt(0, sim::Word::ElementB(5, 0));
  }
  EXPECT_THROW((void)row.simulator.RunUntilQuiescent(100), HardwareFault);
  EXPECT_EQ(scope.corruptions(), 0u);
}

TEST(InjectedFaultTest, ArmedDivisionChecksThrowToo) {
  const faults::FaultPlan plan(2, 1);
  faults::FaultScope scope(&plan, 0, 0, 0);
  RawGateCell raw;
  raw.feed_match->ScheduleAt(0, sim::Word::Boolean(true, 0, 0));
  EXPECT_THROW((void)raw.simulator.RunUntilQuiescent(20), HardwareFault);
}

// One feeder driving one wire into one sink: the minimal circuit for
// observing exactly what the injector does to words in transit.
struct ProbeCircuit {
  sim::Simulator simulator;
  sim::StreamFeeder* feeder;
  sim::SinkCell* sink;

  ProbeCircuit() {
    sim::Wire* wire = simulator.NewWire("w");
    feeder = simulator.AddInfrastructureCell<sim::StreamFeeder>("f", wire);
    sink = simulator.AddInfrastructureCell<sim::SinkCell>("s", wire);
  }
};

TEST(InjectedFaultTest, BitFlipCorruptsValueAndCounts) {
  faults::FaultPlan plan = faults::FaultPlan::Uniform(
      /*seed=*/7, /*num_chips=*/1, /*bit_flip=*/1.0, 0, 0);
  faults::FaultScope scope(&plan, 0, 0, 0);
  ProbeCircuit circuit;
  circuit.feeder->ScheduleAt(0, sim::Word::Element(5, 0));
  circuit.simulator.Step();  // word commits onto the wire, then is hit
  circuit.simulator.Step();  // sink latches the corrupted word
  ASSERT_EQ(circuit.sink->received().size(), 1u);
  EXPECT_NE(circuit.sink->received()[0].second.value, 5);
  EXPECT_EQ(scope.corruptions(), 1u);
}

TEST(InjectedFaultTest, ValidDropErasesWordsAndCounts) {
  faults::FaultPlan plan = faults::FaultPlan::Uniform(
      /*seed=*/7, /*num_chips=*/1, 0, /*valid_drop=*/1.0, 0);
  faults::FaultScope scope(&plan, 0, 0, 0);
  ProbeCircuit circuit;
  circuit.feeder->ScheduleAt(0, sim::Word::Element(5, 0));
  circuit.simulator.Step();
  circuit.simulator.Step();
  EXPECT_TRUE(circuit.sink->received().empty());
  EXPECT_EQ(scope.corruptions(), 1u);
}

TEST(InjectedFaultTest, ZeroRatePlanInjectsNothing) {
  const faults::FaultPlan plan(9, 1);
  faults::FaultScope scope(&plan, 0, 0, 0);
  ProbeCircuit circuit;
  circuit.feeder->ScheduleAt(0, sim::Word::Element(5, 0));
  circuit.simulator.Step();
  circuit.simulator.Step();
  ASSERT_EQ(circuit.sink->received().size(), 1u);
  EXPECT_EQ(circuit.sink->received()[0].second.value, 5);
  EXPECT_EQ(scope.corruptions(), 0u);
}

TEST(InjectedFaultTest, InjectionIsDeterministicInTheFaultKey) {
  // Same (seed, chip, tile, attempt) -> the identical corrupted value;
  // fault decisions are keyed hashes, not draws from shared RNG state.
  auto run = [](uint32_t attempt) {
    faults::FaultPlan plan =
        faults::FaultPlan::Uniform(11, 1, /*bit_flip=*/1.0, 0, 0);
    faults::FaultScope scope(&plan, 0, /*tile_key=*/4, attempt);
    ProbeCircuit circuit;
    circuit.feeder->ScheduleAt(0, sim::Word::Element(5, 0));
    circuit.simulator.Step();
    circuit.simulator.Step();
    SYSTOLIC_CHECK(circuit.sink->received().size() == 1);
    return circuit.sink->received()[0].second.value;
  };
  EXPECT_EQ(run(0), run(0));
  EXPECT_EQ(run(1), run(1));
}

TEST(InjectedFaultTest, ScopeRestoresFatalBehaviourOnExit) {
  {
    const faults::FaultPlan plan(3, 1);
    faults::FaultScope scope(&plan, 0, 0, 0);
    EXPECT_TRUE(internal_logging::HardwareChecksArmed());
  }
  EXPECT_FALSE(internal_logging::HardwareChecksArmed());
}

}  // namespace
}  // namespace arrays
}  // namespace systolic
