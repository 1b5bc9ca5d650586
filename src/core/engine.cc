#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>

#include "arrays/dedup_array.h"
#include "arrays/division_array.h"
#include "arrays/intersection_array.h"
#include "arrays/join_array.h"
#include "faults/checksum.h"
#include "faults/fault_scope.h"
#include "perfmodel/estimates.h"
#include "system/scratchpad/memory.h"
#include "system/scratchpad/scratchpad.h"
#include "systolic/schedule.h"
#include "util/logging.h"

namespace systolic {
namespace db {

using arrays::ArrayRunInfo;
using arrays::FeedMode;
using rel::Relation;

Engine::Engine(DeviceConfig device) : Engine(device, nullptr) {}

Engine::Engine(DeviceConfig device, std::shared_ptr<ChipPool> shared_pool)
    : device_(device),
      pool_(device.num_chips > 1
                ? (shared_pool != nullptr
                       ? std::move(shared_pool)
                       : std::make_shared<ChipPool>(device.num_chips))
                : nullptr),
      health_(device.faults != nullptr
                  ? std::make_shared<ChipHealth>(
                        std::max<size_t>(1, device.num_chips),
                        device.recovery.strike_limit)
                  : nullptr) {}

size_t Engine::num_chips() const { return std::max<size_t>(1, device_.num_chips); }

Status Engine::RunTiled(
    size_t count, const std::function<Status(size_t tile)>& task,
    const std::function<uint64_t(size_t tile)>& tile_checksum,
    ExecStats* stats) const {
  const auto dispatch =
      [&](const std::function<Status(size_t)>& tile_task) -> Status {
    if (pool_ == nullptr || count <= 1) {
      for (size_t tile = 0; tile < count; ++tile) {
        SYSTOLIC_RETURN_NOT_OK(tile_task(tile));
      }
      return Status::OK();
    }
    std::vector<Status> statuses(count);
    pool_->RunAll(count, [&tile_task, &statuses](size_t tile, size_t) {
      statuses[tile] = tile_task(tile);
    });
    for (const Status& status : statuses) {
      SYSTOLIC_RETURN_NOT_OK(status);
    }
    return Status::OK();
  };

  if (health_ == nullptr) return dispatch(task);

  // Fault-tolerant path. Every tile attempt runs inside a FaultScope that
  // injects the plan's faults for its chip and counts every corruption it
  // inflicts (the modelled bus parity / valid-strobe monitors). An attempt
  // is accepted only when it returned OK with zero detected corruptions —
  // so accepted tiles are exactly what a fault-free chip computes, which is
  // what makes recovered output bit-identical to the fault-free run.
  const faults::FaultPlan* plan = device_.faults.get();
  const faults::RecoveryOptions& recovery = device_.recovery;
  const size_t chips = health_->num_chips();
  const size_t max_attempts =
      recovery.max_attempts_per_tile != 0
          ? recovery.max_attempts_per_tile
          : health_->strike_limit() * chips + 4;

  std::atomic<size_t> faults_detected{0};
  std::atomic<size_t> retries{0};
  std::atomic<size_t> shadow_runs{0};
  std::atomic<size_t> shadow_mismatches{0};

  // Shadow attempts draw an independent injection stream via this key bit.
  constexpr uint32_t kShadowAttemptBit = 0x80000000u;

  const auto attempt_once = [&](size_t tile, size_t chip,
                                uint32_t attempt) -> Status {
    faults::FaultScope scope(plan, chip, tile, attempt);
    if (scope.chip_dead()) {
      return Status::Unavailable("chip " + std::to_string(chip) +
                                 " is dead and answers no work");
    }
    Status status;
    try {
      status = task(tile);
    } catch (const HardwareFault& fault) {
      // A corrupted word tripped an array invariant mid-pass.
      return Status::DataCorruption(fault.what());
    }
    if (status.IsInternal()) {
      // Under injection a stall / lost-output Internal is the fault's
      // doing, not a driver bug: recoverable.
      return Status::DataCorruption(status.message());
    }
    if (status.ok() && scope.corruptions() > 0) {
      return Status::DataCorruption(
          std::to_string(scope.corruptions()) +
          " corrupted word(s) detected on chip " + std::to_string(chip));
    }
    return status;
  };

  const auto recovered = [&](size_t tile) -> Status {
    // Route by TILE, not by worker thread: which pool worker claims a tile
    // is scheduling-dependent, and the injected faults are keyed by (chip,
    // tile, attempt) — tile-keyed routing makes the whole fault history of
    // a run reproducible regardless of thread interleaving.
    std::optional<size_t> chip = health_->PreferredChip(tile % chips);
    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (!chip.has_value()) {
        return Status::Unavailable("no usable chips remain: all " +
                                   std::to_string(chips) +
                                   " are quarantined or dead");
      }
      if (attempt > 0) ++retries;
      Status status = attempt_once(tile, *chip, attempt);
      if (status.ok() && faults::ShadowSampled(plan->seed(), tile,
                                               recovery.shadow_fraction)) {
        // Defense in depth: re-run the tile and require matching output
        // checksums. The shadow run faces fresh (independently keyed)
        // faults, so it must itself pass detection to be comparable.
        const uint64_t primary = tile_checksum(tile);
        const Status shadow =
            attempt_once(tile, *chip, attempt | kShadowAttemptBit);
        ++shadow_runs;
        if (!shadow.ok()) {
          status = shadow;
        } else if (tile_checksum(tile) != primary) {
          ++shadow_mismatches;
          status = Status::DataCorruption(
              "shadow re-execution checksum mismatch on chip " +
              std::to_string(*chip));
        }
      }
      if (status.ok()) {
        // A clean attempt proves the chip still works: forgive its strikes,
        // so only consecutive failures — a genuinely failing chip, not a
        // run of transient upsets — ever reach quarantine.
        health_->ClearStrikes(*chip);
        return status;
      }
      if (!status.IsDataCorruption() && !status.IsUnavailable()) {
        return status;  // caller error (capacity, arity, ...): not a fault
      }
      ++faults_detected;
      if (status.IsUnavailable()) {
        health_->Quarantine(*chip);
      } else {
        health_->Strike(*chip);
      }
      chip = health_->PreferredChip((*chip + 1) % chips);
    }
    return Status::Unavailable("tile " + std::to_string(tile) +
                               " still failing after " +
                               std::to_string(max_attempts) + " attempts");
  };

  const Status status = dispatch(recovered);
  stats->faults_detected += faults_detected.load();
  stats->tile_retries += retries.load();
  stats->shadow_runs += shadow_runs.load();
  stats->shadow_mismatches += shadow_mismatches.load();
  return status;
}

// The §8 tile program every operator family runs: "partition this matrix
// into sub-problems small enough to fit on the array". A family supplies
// its tile list, a per-tile kernel and a reduction over the per-tile slots
// its kernel fills; ExecuteTiles does everything in between.

namespace {

/// Tuples [start, start + count) of `source` (clamped to its size): one
/// operand feed of a tile.
struct OperandRange {
  const Relation* source = nullptr;
  size_t start = 0;
  size_t count = 0;
};

struct Tile {
  OperandRange a;
  /// The B feed, preloaded into its own bank. Empty when the array's B
  /// edge taps A's bank (a dedup diagonal compares a block against itself)
  /// or there is no B operand (selection's constants live in the cells):
  /// one mvin, no preload, and the kernel sees A's block on both sides.
  std::optional<OperandRange> b;
};

}  // namespace

struct Engine::TilePlan {
  /// The feed discipline the family resolved (membership and join block by
  /// it); stamped into ExecStats::resolved_mode.
  FeedMode mode = FeedMode::kMarching;
  std::vector<Tile> tiles;
  /// Passes charged without running a tile, when an operand is empty:
  /// pulses_per_op counts them, and they cost no pulse and move no byte.
  size_t trivial_passes = 0;
};

struct Engine::TilePass {
  ArrayRunInfo info;
  /// Bytes the tile's feed moves. The kernel sets `out`, its result drained
  /// through mvout; ExecuteTiles sets `in_a` (mvin) and `in_b` (preload, 0
  /// when B taps A's bank or is absent).
  double out = 0;
  double in_a = 0;
  double in_b = 0;
};

Status Engine::ExecuteTiles(
    const TilePlan& plan, const TileKernel& kernel,
    const std::function<uint64_t(size_t tile)>& checksum,
    ExecStats* stats) const {
  const fastpath::Backend backend = ResolveBackend();
  const bool overlap = ResolveOverlap();
  stats->backend = backend;
  stats->analytic_timing = backend == fastpath::Backend::kFast;
  stats->resolved_mode = plan.mode;
  stats->overlap_enabled = overlap;
  stats->num_chips = num_chips();
  stats->passes += plan.trivial_passes;

  // Every tile is an independent sub-problem, so the batch fans out across
  // the chip pool; results land in per-tile slots and everything below
  // folds them in tile order, which keeps output and statistics
  // bit-identical to the serial path.
  std::vector<TilePass> passes(plan.tiles.size());
  SYSTOLIC_RETURN_NOT_OK(RunTiled(
      plan.tiles.size(),
      [&](size_t t) -> Status {
        const Tile& tile = plan.tiles[t];
        // Per-attempt banks: a retried attempt re-stages its operand feed
        // from scratch, so it never sees a half-drained bank.
        spad::ScratchpadBank bank_a;
        spad::ScratchpadBank bank_b;
        const Relation block_a =
            bank_a.Stage(*tile.a.source, tile.a.start, tile.a.count);
        std::optional<Relation> block_b;
        if (tile.b.has_value()) {
          block_b = bank_b.Stage(*tile.b->source, tile.b->start, tile.b->count);
        }
        SYSTOLIC_ASSIGN_OR_RETURN(
            passes[t], kernel(t, block_a, block_b ? *block_b : block_a,
                              backend));
        // The accepted attempt's feed streams out of the banks into the
        // array exactly once.
        bank_a.Drain(bank_a.staged_bytes());
        bank_b.Drain(bank_b.staged_bytes());
        passes[t].in_a = bank_a.staged_bytes();
        passes[t].in_b = bank_b.staged_bytes();
        return Status::OK();
      },
      checksum, stats));

  // Degradation: quarantined chips take no further passes, so the makespan
  // schedule only spreads over the chips still usable.
  const size_t usable = health_ == nullptr
                            ? num_chips()
                            : std::max<size_t>(1, health_->num_usable());
  stats->healthy_chips = usable;
  // Greedy tile-order schedule: each pass goes to the chip that frees up
  // first.
  std::vector<size_t> chip_busy(usable, 0);
  std::vector<std::vector<size_t>> tiles_of_chip(usable);
  for (size_t t = 0; t < passes.size(); ++t) {
    const ArrayRunInfo& info = passes[t].info;
    ++stats->passes;
    stats->cycles += info.cycles;
    stats->busy_cell_cycles += info.sim.busy_cell_cycles;
    stats->num_compute_cells =
        std::max(stats->num_compute_cells, info.sim.num_compute_cells);
    const auto next_free = std::min_element(chip_busy.begin(), chip_busy.end());
    *next_free += info.cycles;
    tiles_of_chip[next_free - chip_busy.begin()].push_back(t);
  }
  stats->makespan_cycles +=
      *std::max_element(chip_busy.begin(), chip_busy.end());
  // Each chip owns one DMA engine and bank set, which queues its tiles in
  // that same order. The memory critical path is the slowest chip's DMA
  // schedule, mirroring how makespan_cycles takes the busiest chip. One
  // queue lives at a time: a queue holds four commands per tile.
  size_t memory_makespan = 0;
  for (const std::vector<size_t>& tiles : tiles_of_chip) {
    spad::DmaQueue queue(overlap);
    for (const size_t t : tiles) {
      queue.Mvin(t, passes[t].in_a);
      queue.Preload(t, passes[t].in_b);
      queue.Compute(t, passes[t].info.cycles);
      queue.Mvout(t, passes[t].out);
    }
    const size_t makespan = queue.Schedule(&stats->dma_trace);
    stats->dma_cycles += queue.TransferCycleTotal();
    stats->overlap_cycles += queue.SerialCycleTotal() - makespan;
    memory_makespan = std::max(memory_makespan, makespan);
  }
  stats->memory_makespan_cycles += memory_makespan;
  return Status::OK();
}

size_t Engine::BlockCapacity(FeedMode mode, bool bottom) const {
  return perf::MembershipBlockCapacity(mode == FeedMode::kFixedB, bottom,
                                       device_.rows);
}

double Engine::EstimatePulses(FeedMode mode, size_t n_a, size_t n_b,
                              size_t columns) const {
  // Shared with the query planner (perfmodel/estimates), so the planner's
  // predicted feed mode is exactly what ResolveMode picks at run time.
  if (mode == FeedMode::kFixedB) {
    return perf::FixedBMembershipPulses(n_a, n_b, columns, device_.rows);
  }
  return perf::MarchingMembershipPulses(n_a, n_b, columns, device_.rows);
}

bool Engine::ResolveOverlap() const {
  // kAuto resolves to on: double-buffering never lengthens the modeled
  // memory critical path (Schedule() degenerates to the serial timeline
  // when transfers and compute cannot overlap).
  return device_.overlap != spad::OverlapPolicy::kOff;
}

fastpath::Backend Engine::ResolveBackend() const {
  // Fault injection corrupts words inside individual pulses; the analytic
  // fast path simulates no pulses, so kFast silently falls back to the RTL
  // simulator while a fault plan is installed.
  if (device_.backend == fastpath::BackendPolicy::kRtl ||
      device_.faults != nullptr) {
    return fastpath::Backend::kRtl;
  }
  return fastpath::Backend::kFast;
}

FeedMode Engine::ResolveMode(size_t n_a, size_t n_b) const {
  switch (device_.mode) {
    case arrays::FeedModePolicy::kMarching:
      return FeedMode::kMarching;
    case arrays::FeedModePolicy::kFixedB:
      return FeedMode::kFixedB;
    case arrays::FeedModePolicy::kAuto:
      break;
  }
  const double marching = EstimatePulses(FeedMode::kMarching, n_a, n_b, 1);
  const double fixed = EstimatePulses(FeedMode::kFixedB, n_a, n_b, 1);
  return fixed <= marching ? FeedMode::kFixedB : FeedMode::kMarching;
}

Engine Engine::WithMode(FeedMode mode) const {
  Engine copy = *this;  // shares pool_, so no threads are spawned
  copy.device_.mode = mode == FeedMode::kFixedB
                          ? arrays::FeedModePolicy::kFixedB
                          : arrays::FeedModePolicy::kMarching;
  return copy;
}

Status Engine::CheckWidth(size_t width) const {
  if (device_.columns != 0 && width > device_.columns) {
    return Status::Capacity(
        "operand width " + std::to_string(width) + " exceeds the device's " +
        std::to_string(device_.columns) +
        " columns; the paper's decomposition partitions the result matrix "
        "over tuples, not over columns (§8)");
  }
  return Status::OK();
}

Result<BitVector> Engine::MembershipBits(const Relation& a, const Relation& b,
                                         bool dedup, ExecStats* stats) const {
  const size_t n_a = a.num_tuples();
  const size_t n_b = b.num_tuples();
  TilePlan plan;
  plan.mode = ResolveMode(n_a, n_b);
  // Block sizes: dedup tiles A against itself by the preload (bottom)
  // capacity so both disciplines use the same decomposition; the general
  // case blocks A by the top capacity and B by the bottom capacity.
  const size_t cap_a =
      std::min(BlockCapacity(plan.mode, /*bottom=*/dedup), n_a);
  if (dedup) {
    // Tile pairs (p, q) with q <= p over blocks of A. Diagonal tiles use
    // the lower-triangle rule on block-local indices (which coincide
    // pairwise); below-diagonal tiles compare full blocks, since every such
    // pair already has j < i globally.
    for (size_t p = 0; p < n_a; p += cap_a) {
      for (size_t q = 0; q <= p; q += cap_a) {
        Tile tile{{&a, p, cap_a}, std::nullopt};
        if (q != p) tile.b = OperandRange{&a, q, cap_a};
        plan.tiles.push_back(tile);
      }
    }
  } else {
    const size_t cap_b = std::min(BlockCapacity(plan.mode, /*bottom=*/true),
                                  std::max<size_t>(1, n_b));
    for (size_t ai = 0; ai < n_a; ai += cap_a) {
      // Empty B: the block's pass is trivially empty; nothing to run.
      if (n_b == 0) ++plan.trivial_passes;
      for (size_t bi = 0; bi < n_b; bi += cap_b) {
        plan.tiles.push_back({{&a, ai, cap_a}, OperandRange{&b, bi, cap_b}});
      }
    }
  }

  arrays::MembershipOptions options;
  options.mode = plan.mode;
  options.rows = device_.rows;
  const std::vector<size_t> a_cols = sim::AllColumns(a);
  const std::vector<size_t> b_cols = sim::AllColumns(b);
  std::vector<BitVector> tile_bits(plan.tiles.size(), BitVector(0));
  SYSTOLIC_RETURN_NOT_OK(ExecuteTiles(
      plan,
      [&](size_t t, const Relation& block_a, const Relation& block_b,
          fastpath::Backend backend) -> Result<TilePass> {
        const arrays::EdgeRule edge_rule =
            plan.tiles[t].b.has_value()
                ? arrays::EdgeRule::kAllTrue
                : arrays::EdgeRule::kStrictLowerTriangle;
        // Either executor: same bits, same cycle count. Only the RTL
        // simulator produces cell-occupancy statistics.
        TilePass pass;
        SYSTOLIC_ASSIGN_OR_RETURN(
            tile_bits[t],
            backend == fastpath::Backend::kFast
                ? fastpath::FastMembership(block_a, block_b, a_cols, b_cols,
                                           edge_rule, options, &pass.info)
                : arrays::RunMembership(block_a, block_b, a_cols, b_cols,
                                        edge_rule, options, &pass.info));
        // The result bits drain as packed bytes.
        pass.out = spad::BitDrainBytes(tile_bits[t].size());
        return pass;
      },
      [&tile_bits](size_t t) { return faults::ChecksumBits(tile_bits[t]); },
      stats));

  // The §4 accumulator: OR each tile's bits into A's at the tile's offset.
  BitVector acc(n_a, false);
  for (size_t t = 0; t < plan.tiles.size(); ++t) {
    const BitVector& bits = tile_bits[t];
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits.Get(i)) acc.Set(plan.tiles[t].a.start + i, true);
    }
  }
  return acc;
}

Result<EngineResult> Engine::Intersect(const Relation& a,
                                       const Relation& b) const {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(a.arity()));
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(BitVector bits,
                            MembershipBits(a, b, /*dedup=*/false, &stats));
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(bits, rel::RelationKind::kSet));
  EngineResult result(std::move(out));
  result.stats = stats;
  return result;
}

Result<EngineResult> Engine::Subtract(const Relation& a,
                                      const Relation& b) const {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(a.arity()));
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(BitVector bits,
                            MembershipBits(a, b, /*dedup=*/false, &stats));
  bits.FlipAll();
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(bits, rel::RelationKind::kSet));
  EngineResult result(std::move(out));
  result.stats = stats;
  return result;
}

Result<EngineResult> Engine::RemoveDuplicates(const Relation& a) const {
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(a.arity()));
  if (a.arity() == 0) {
    return Status::InvalidArgument("operand must have at least one column");
  }
  ExecStats stats;
  SYSTOLIC_ASSIGN_OR_RETURN(BitVector duplicate,
                            MembershipBits(a, a, /*dedup=*/true, &stats));
  duplicate.FlipAll();
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(duplicate, rel::RelationKind::kSet));
  EngineResult result(std::move(out));
  result.stats = stats;
  return result;
}

Result<EngineResult> Engine::Union(const Relation& a,
                                   const Relation& b) const {
  SYSTOLIC_RETURN_NOT_OK(a.schema().CheckUnionCompatible(b.schema()));
  Relation concatenated(a.schema(), rel::RelationKind::kMulti);
  SYSTOLIC_RETURN_NOT_OK(concatenated.Concatenate(a));
  SYSTOLIC_RETURN_NOT_OK(concatenated.Concatenate(b));
  return RemoveDuplicates(concatenated);
}

Result<EngineResult> Engine::Project(const Relation& a,
                                     const std::vector<size_t>& columns) const {
  SYSTOLIC_ASSIGN_OR_RETURN(Relation narrowed, a.ProjectColumns(columns));
  return RemoveDuplicates(narrowed);
}

Result<EngineResult> Engine::Join(const Relation& a, const Relation& b,
                                  const rel::JoinSpec& spec) const {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateJoinSpec(a.schema(), b.schema(), spec));
  SYSTOLIC_RETURN_NOT_OK(CheckWidth(spec.left_columns.size()));
  SYSTOLIC_ASSIGN_OR_RETURN(
      rel::Schema out_schema,
      rel::JoinOutputSchema(a.schema(), b.schema(), spec));
  EngineResult result(
      Relation(std::move(out_schema), rel::RelationKind::kMulti));

  TilePlan plan;
  plan.mode = ResolveMode(a.num_tuples(), b.num_tuples());
  const size_t cap_a =
      std::min(BlockCapacity(plan.mode, false), a.num_tuples());
  const size_t cap_b =
      std::min(BlockCapacity(plan.mode, true), b.num_tuples());
  for (size_t ai = 0; ai < a.num_tuples(); ai += cap_a) {
    for (size_t bi = 0; bi < b.num_tuples(); bi += cap_b) {
      plan.tiles.push_back({{&a, ai, cap_a}, OperandRange{&b, bi, cap_b}});
    }
  }

  arrays::JoinArrayOptions options;
  options.mode = plan.mode;
  options.rows = device_.rows;
  const size_t out_arity = result.relation.arity();
  std::vector<std::vector<std::pair<size_t, size_t>>> tile_matches(
      plan.tiles.size());
  SYSTOLIC_RETURN_NOT_OK(ExecuteTiles(
      plan,
      [&](size_t t, const Relation& block_a, const Relation& block_b,
          fastpath::Backend backend) -> Result<TilePass> {
        SYSTOLIC_ASSIGN_OR_RETURN(
            arrays::JoinArrayResult tile,
            backend == fastpath::Backend::kFast
                ? fastpath::FastJoin(block_a, block_b, spec, options)
                : arrays::SystolicJoin(block_a, block_b, spec, options));
        // Overwrite, never append onto, a rejected attempt's matches.
        const size_t ai = plan.tiles[t].a.start;
        const size_t bi = plan.tiles[t].b->start;
        tile_matches[t].clear();
        tile_matches[t].reserve(tile.matches.size());
        for (const auto& [i, j] : tile.matches) {
          tile_matches[t].emplace_back(ai + i, bi + j);
        }
        return TilePass{tile.info,
                        spad::TupleBytes(tile.matches.size(), out_arity)};
      },
      [&tile_matches](size_t t) {
        return faults::ChecksumMatches(tile_matches[t]);
      },
      &result.stats));

  // Concatenate every tile's matches, emitted in (i, j) order.
  std::vector<std::pair<size_t, size_t>> matches;
  for (const auto& per_tile : tile_matches) {
    matches.insert(matches.end(), per_tile.begin(), per_tile.end());
  }
  std::sort(matches.begin(), matches.end());
  for (const auto& [i, j] : matches) {
    SYSTOLIC_RETURN_NOT_OK(result.relation.Append(
        rel::JoinConcatenate(a.tuple(i), b.tuple(j), spec)));
  }
  return result;
}

Result<EngineResult> Engine::Divide(const Relation& a, const Relation& b,
                                    const rel::DivisionSpec& spec) const {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateDivisionSpec(a.schema(), b.schema(), spec));
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Schema out_schema,
                            rel::DivisionOutputSchema(a.schema(), spec));
  EngineResult result(Relation(std::move(out_schema), rel::RelationKind::kSet));

  // Dividend-side tiling: group A's tuples by the first-occurrence rank of
  // their quotient value, so each chunk holds at most `rows` distinct
  // dividend keys (the dividend array's height).
  const std::vector<size_t> quotient_columns =
      rel::DivisionQuotientColumns(a.schema(), spec);
  const size_t max_p = device_.rows == 0 ? SIZE_MAX : device_.rows;
  std::map<rel::Tuple, size_t> x_rank;
  std::vector<Relation> chunks;
  for (const rel::Tuple& ta : a.tuples()) {
    rel::Tuple x;
    x.reserve(quotient_columns.size());
    for (size_t c : quotient_columns) x.push_back(ta[c]);
    auto [it, inserted] = x_rank.emplace(std::move(x), x_rank.size());
    const size_t chunk_index = it->second / max_p;
    if (chunk_index >= chunks.size()) {
      chunks.emplace_back(a.schema(), rel::RelationKind::kMulti);
    }
    SYSTOLIC_RETURN_NOT_OK(chunks[chunk_index].Append(ta));
  }

  // Divisor-side tiling: split B into groups of at most `columns` distinct
  // values; a key divides B iff it divides every group (intersection).
  const size_t max_q = device_.columns == 0 ? SIZE_MAX : device_.columns;
  std::vector<Relation> divisor_groups;
  if (b.num_tuples() == 0) {
    divisor_groups.emplace_back(b.schema(), rel::RelationKind::kSet);
  } else {
    std::map<rel::Tuple, size_t> y_rank;
    for (const rel::Tuple& tb : b.tuples()) {
      rel::Tuple y;
      y.reserve(spec.b_columns.size());
      for (size_t c : spec.b_columns) y.push_back(tb[c]);
      auto [it, inserted] = y_rank.emplace(std::move(y), y_rank.size());
      const size_t group_index = it->second / max_q;
      if (group_index >= divisor_groups.size()) {
        divisor_groups.emplace_back(b.schema(), rel::RelationKind::kMulti);
      }
      if (inserted) {
        SYSTOLIC_RETURN_NOT_OK(divisor_groups[group_index].Append(tb));
      }
    }
  }

  // Every (chunk, divisor-group) pass is independent — intersecting the
  // groups' survivor sets commutes with running the passes — so the whole
  // grid is one plan. Every pass re-streams its chunk, so a chunk paired
  // with G divisor groups is staged G times.
  TilePlan plan;
  // No candidate quotient values: one trivial pass for accounting.
  if (chunks.empty()) plan.trivial_passes = 1;
  for (const Relation& chunk : chunks) {
    for (const Relation& group : divisor_groups) {
      plan.tiles.push_back({{&chunk, 0, chunk.num_tuples()},
                            OperandRange{&group, 0, group.num_tuples()}});
    }
  }
  std::vector<arrays::DivisionArrayResult> passes(
      plan.tiles.size(), arrays::DivisionArrayResult(
                             Relation(b.schema(), rel::RelationKind::kSet)));
  SYSTOLIC_RETURN_NOT_OK(ExecuteTiles(
      plan,
      [&](size_t t, const Relation& block_a, const Relation& block_b,
          fastpath::Backend backend) -> Result<TilePass> {
        SYSTOLIC_ASSIGN_OR_RETURN(
            passes[t], backend == fastpath::Backend::kFast
                           ? fastpath::FastDivision(block_a, block_b, spec)
                           : arrays::SystolicDivision(block_a, block_b, spec));
        return TilePass{passes[t].info,
                        machine::RelationBytes(passes[t].relation)};
      },
      [&passes](size_t t) {
        return faults::ChecksumRelation(passes[t].relation);
      },
      &result.stats));

  // The §7 reduction: a chunk's key survives iff every divisor group keeps
  // it; groups are walked in order, so survivors keep first-occurrence order.
  const size_t num_groups = divisor_groups.size();
  for (size_t c = 0; c < chunks.size(); ++c) {
    std::vector<rel::Tuple> surviving =
        passes[c * num_groups].relation.tuples();
    for (size_t g = 1; g < num_groups; ++g) {
      const Relation& kept = passes[c * num_groups + g].relation;
      std::vector<rel::Tuple> next;
      for (const rel::Tuple& x : surviving) {
        if (kept.Contains(x)) next.push_back(x);
      }
      surviving = std::move(next);
    }
    for (rel::Tuple& x : surviving) {
      SYSTOLIC_RETURN_NOT_OK(result.relation.Append(std::move(x)));
    }
  }
  return result;
}

Result<EngineResult> Engine::Select(
    const rel::Relation& a,
    const std::vector<arrays::SelectionPredicate>& predicates) const {
  if (device_.columns != 0 && predicates.size() > device_.columns) {
    return Status::Capacity(
        "selection uses " + std::to_string(predicates.size()) +
        " predicates but the device has " + std::to_string(device_.columns) +
        " columns");
  }
  // One tile: A streams through the one-row device in a single mvin, with
  // no preload (the predicate constants live in the cells), and the
  // selected tuples drain back.
  TilePlan plan;
  plan.tiles.push_back({{&a, 0, a.num_tuples()}, std::nullopt});
  arrays::SelectionResult selected(
      Relation(a.schema(), rel::RelationKind::kMulti));
  ExecStats stats;
  SYSTOLIC_RETURN_NOT_OK(ExecuteTiles(
      plan,
      [&](size_t, const Relation& block, const Relation&,
          fastpath::Backend backend) -> Result<TilePass> {
        SYSTOLIC_ASSIGN_OR_RETURN(
            selected, backend == fastpath::Backend::kFast
                          ? fastpath::FastSelect(block, predicates)
                          : arrays::SystolicSelect(block, predicates));
        return TilePass{selected.info,
                        machine::RelationBytes(selected.relation)};
      },
      [&selected](size_t) { return faults::ChecksumBits(selected.selected); },
      &stats));
  // No predicate selects every tuple: the result is A itself, kind and all
  // (the kernel saw A's staged block, which is always a multi-relation).
  EngineResult result(predicates.empty() ? a : std::move(selected.relation));
  result.stats = stats;
  return result;
}

}  // namespace db
}  // namespace systolic
