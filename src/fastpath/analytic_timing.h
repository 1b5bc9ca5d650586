#ifndef SYSTOLIC_FASTPATH_ANALYTIC_TIMING_H_
#define SYSTOLIC_FASTPATH_ANALYTIC_TIMING_H_

#include <cstddef>

#include "arrays/comparison_grid.h"

namespace systolic {
namespace fastpath {

/// Closed-form pulse counts for the §3/§8 arrays, exact to the cycle.
///
/// The fast path computes *results* with hash probes and plain loops
/// (backend.cc) but reports *timing* from these formulas, which reproduce
/// the RTL simulator's quiescence cycle exactly — not approximately — on
/// every shape the engine can emit. They extend the §3.2/§8 exit-pulse closed forms
/// (pair (i,j) leaves the marching grid at pulse i+j+m+(R-1)/2+1, the
/// fixed-B grid at i+j+m+1; accumulated t_i leaves the column at 2i+m+R+1)
/// to full-run quiescence, which adds the drain of the longer operand and
/// the quiescence-detection step. The contract is pinned by
/// tests/fastpath_kernel_test.cc's analytic-vs-simulated sweeps: any change
/// to the arrays' dataflow must update these forms in the same commit.

/// The grid rows a membership/join pass actually instantiates: `rows` when
/// nonzero, else the §3 auto-size — RowsForMarching(max(n_a, n_b)) for
/// marching, max(1, n_b) for fixed-B.
size_t EffectiveRows(arrays::FeedMode mode, size_t n_a, size_t n_b,
                     size_t rows);

/// Quiescence cycle of one RunMembership pass (grid + accumulation column)
/// over n_a x n_b tuples of width m on an R-row grid:
///   marching: m + R + max(2*n_a, 2*n_b - 1)
///     (A-side: last t_{n_a-1} reaches the sink at 2*n_a + m + R - 1 and
///      quiescence detection adds 1; B-side: the last B word drains off the
///      grid one pulse earlier per tuple, 2*n_b - 1 + m + R.)
///   fixed-B:  n_a + m + R + 1
///     (A streams at unit spacing past the preloaded B; the last t drains
///      the full column regardless of how many rows B fills.)
/// `rows` may be 0 (auto-size). n_a == 0 never runs (0 cycles); n_b may be
/// 0 only in marching mode (the engine skips empty-B tiles entirely).
size_t MembershipCycles(arrays::FeedMode mode, size_t n_a, size_t n_b,
                        size_t m, size_t rows);

/// Quiescence cycle of one SystolicJoin pass (grid + per-row sinks, no
/// accumulation column), m = number of join columns:
///   marching: m + R + max(2*n_a - 1, 2*n_b - 1)
///   fixed-B:  n_a + m + R
/// One pulse less than membership on the critical side: the t words fall
/// straight into the row sinks instead of riding the accumulation column's
/// extra commit.
size_t JoinCycles(arrays::FeedMode mode, size_t n_a, size_t n_b, size_t m,
                  size_t rows);

/// Quiescence cycle of one SystolicSelect pass: a 1-row fixed-B grid with
/// one cell per predicate, so n + predicates + 1. Zero predicates or an
/// empty operand never reach the device (0 cycles).
size_t SelectionCycles(size_t n, size_t predicates);

/// Quiescence cycle of one SystolicDivision run (both phases, cumulative):
///   max(|A| + P, M + Q + 2) + Q + 4
/// where P = distinct quotient values, Q = distinct divisor values, and
/// M = max over feed positions t of (t + x_t) with x_t the first-occurrence
/// rank of pair t's quotient value. Phase 1 quiesces when both chains drain
/// (|A| + P) and the last gated y element — entering row x_t at pulse
/// t + x_t + 2 — crosses its Q divisor cells; phase 2's AND probe adds
/// Q + 4 across every row in parallel. An empty dividend never runs
/// (0 cycles); Q may be 0.
size_t DivisionCycles(size_t num_pairs, size_t p, size_t q, size_t m_feed);

}  // namespace fastpath
}  // namespace systolic

#endif  // SYSTOLIC_FASTPATH_ANALYTIC_TIMING_H_
