#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <optional>
#include <unordered_map>

#include "arrays/dedup_array.h"
#include "arrays/division_array.h"
#include "arrays/intersection_array.h"
#include "arrays/join_array.h"
#include "faults/checksum.h"
#include "faults/fault_scope.h"
#include "perfmodel/estimates.h"
#include "relational/tuple_hash.h"
#include "system/scratchpad/memory.h"
#include "system/scratchpad/scratchpad.h"
#include "systolic/schedule.h"
#include "util/logging.h"

namespace systolic {
namespace db {

using arrays::ArrayRunInfo;
using arrays::FeedMode;
using rel::Relation;

Engine::Engine(DeviceConfig device)
    : device_(device),
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
    if (num_chips() == 1 || count <= 1) {
      for (size_t tile = 0; tile < count; ++tile) {
        SYSTOLIC_RETURN_NOT_OK(tile_task(tile));
      }
      return Status::OK();
    }
    std::vector<Status> statuses(count);
    ParallelFor(count, num_chips(), [&tile_task, &statuses](size_t tile) {
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
    // Route by TILE, not by host thread: which thread claims a tile is
    // scheduling-dependent, and the injected faults are keyed by (chip,
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

/// One operand feed of a tile: a block no larger than the array, and the
/// offset of its first tuple in the operand it was cut from.
struct Block {
  const Relation* tuples = nullptr;
  size_t start = 0;
};

struct Tile {
  Block a;
  /// The B feed, preloaded into its own bank. Null when the array's B edge
  /// taps A's bank (a dedup diagonal compares a block against itself) or
  /// there is no B operand (selection's constants live in the cells): one
  /// mvin, no preload, and the kernel sees A's block on both sides.
  Block b;
};

}  // namespace

struct Engine::TilePlan {
  TilePlan() = default;
  /// Tiles point into `slices`, so a copy's tiles would point into this
  /// plan's blocks.
  TilePlan(const TilePlan&) = delete;
  TilePlan& operator=(const TilePlan&) = delete;

  /// The feed discipline the family resolved (membership and join block by
  /// it); stamped into ExecStats::resolved_mode.
  FeedMode mode = FeedMode::kMarching;
  std::vector<Tile> tiles;
  /// Passes charged without running a tile, when an operand is empty:
  /// pulses_per_op counts them, and they cost no pulse and move no byte.
  size_t trivial_passes = 0;
  /// The slices Split cut. A deque never moves an element it holds, so
  /// tiles may point into it while it grows.
  std::deque<Relation> slices;

  /// `source` cut into blocks of at most `cap` tuples, in order: none when
  /// it is empty, `source` itself when it fits (so an untiled operation
  /// copies nothing), and otherwise `cap`-tuple slices with a shorter last
  /// one. Each operand is split once per operation; tiles share the blocks.
  std::vector<Block> Split(const Relation& source, size_t cap) {
    const size_t n = source.num_tuples();
    if (n <= cap) {
      return n == 0 ? std::vector<Block>{} : std::vector<Block>{{&source, 0}};
    }
    std::vector<Block> blocks;
    for (size_t start = 0; start < n; start += cap) {
      const size_t end = std::min(start + cap, n);
      Relation& slice = slices.emplace_back(source.schema(),
                                            rel::RelationKind::kMulti);
      for (size_t i = start; i < end; ++i) {
        SYSTOLIC_CHECK(slice.Append(source.tuple(i)).ok());
      }
      blocks.push_back({&slice, start});
    }
    return blocks;
  }
};

struct Engine::TilePass {
  ArrayRunInfo info;
  /// Bytes of the tile's result, drained through mvout.
  double out = 0;
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
  // host threads; results land in per-tile slots and everything below
  // folds them in tile order, which keeps output and statistics
  // bit-identical to the serial path.
  std::vector<TilePass> passes(plan.tiles.size());
  SYSTOLIC_RETURN_NOT_OK(RunTiled(
      plan.tiles.size(),
      [&](size_t t) -> Status {
        // Blocks are immutable, so a retried attempt reads the same feed.
        const Tile& tile = plan.tiles[t];
        const Relation& block_a = *tile.a.tuples;
        SYSTOLIC_ASSIGN_OR_RETURN(
            passes[t],
            kernel(t, block_a, tile.b.tuples != nullptr ? *tile.b.tuples
                                                        : block_a,
                   backend));
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
      // The accepted attempt's feed: A's block into one bank, B's preloaded
      // into the other unless B taps A's bank.
      const Tile& tile = plan.tiles[t];
      queue.Mvin(t, machine::RelationBytes(*tile.a.tuples));
      if (tile.b.tuples != nullptr) {
        queue.Preload(t, machine::RelationBytes(*tile.b.tuples));
      }
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
  Engine copy = *this;  // shares health_
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
  const std::vector<Block> a_blocks =
      plan.Split(a, BlockCapacity(plan.mode, /*bottom=*/dedup));
  if (dedup) {
    // Tile pairs (p, q) with q <= p over blocks of A. Diagonal tiles use
    // the lower-triangle rule on block-local indices (which coincide
    // pairwise); below-diagonal tiles compare full blocks, since every such
    // pair already has j < i globally.
    for (size_t p = 0; p < a_blocks.size(); ++p) {
      for (size_t q = 0; q <= p; ++q) {
        plan.tiles.push_back({a_blocks[p], q == p ? Block{} : a_blocks[q]});
      }
    }
  } else {
    const std::vector<Block> b_blocks =
        plan.Split(b, BlockCapacity(plan.mode, /*bottom=*/true));
    for (const Block& block_a : a_blocks) {
      // Empty B: the block's pass is trivially empty; nothing to run.
      if (b_blocks.empty()) ++plan.trivial_passes;
      for (const Block& block_b : b_blocks) {
        plan.tiles.push_back({block_a, block_b});
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
            plan.tiles[t].b.tuples != nullptr
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
  result.stats = std::move(stats);
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
  result.stats = std::move(stats);
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
  result.stats = std::move(stats);
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
  const std::vector<Block> a_blocks =
      plan.Split(a, BlockCapacity(plan.mode, /*bottom=*/false));
  const std::vector<Block> b_blocks =
      plan.Split(b, BlockCapacity(plan.mode, /*bottom=*/true));
  for (const Block& block_a : a_blocks) {
    for (const Block& block_b : b_blocks) {
      plan.tiles.push_back({block_a, block_b});
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
        const size_t bi = plan.tiles[t].b.start;
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
  std::unordered_map<rel::Tuple, size_t, rel::TupleHash> x_rank;
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
    std::unordered_map<rel::Tuple, size_t, rel::TupleHash> y_rank;
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
  // grid is one plan. Tiles point at the chunks and groups built above;
  // every pass re-streams its chunk, so a chunk paired with G divisor
  // groups is mvin'd G times.
  TilePlan plan;
  // No candidate quotient values: one trivial pass for accounting.
  if (chunks.empty()) plan.trivial_passes = 1;
  for (const Relation& chunk : chunks) {
    for (const Relation& group : divisor_groups) {
      plan.tiles.push_back({{&chunk, 0}, {&group, 0}});
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
  plan.tiles.push_back({{&a, 0}, {}});
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
  // The kernel reads A in place, so with no predicate it returns A itself,
  // kind and all.
  EngineResult result(std::move(selected.relation));
  result.stats = std::move(stats);
  return result;
}

}  // namespace db
}  // namespace systolic
