#include "fastpath/backend.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fastpath/analytic_timing.h"
#include "relational/tuple_hash.h"

namespace systolic {
namespace fastpath {

using arrays::FeedMode;
using rel::Relation;
using rel::Tuple;

const char* BackendPolicyToString(BackendPolicy policy) {
  return policy == BackendPolicy::kFast ? "fast" : "rtl";
}

const char* BackendToString(Backend backend) {
  return backend == Backend::kFast ? "fast" : "rtl";
}

bool ParseBackendPolicy(const std::string& text, BackendPolicy* policy) {
  if (text == "rtl") {
    *policy = BackendPolicy::kRtl;
  } else if (text == "fast") {
    *policy = BackendPolicy::kFast;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Mirrors ComparisonGrid's per-pass capacity limits so the fast path fails
/// with the same Capacity status the RTL grid's feeders would return.
Status CheckGridCapacity(FeedMode mode, size_t n_a, size_t n_b, size_t rows) {
  const size_t max_a = mode == FeedMode::kFixedB ? SIZE_MAX : (rows + 1) / 2;
  const size_t max_b = mode == FeedMode::kFixedB ? rows : (rows + 1) / 2;
  if (n_a > max_a) {
    return Status::Capacity("relation A has " + std::to_string(n_a) +
                            " tuples but the grid fits " +
                            std::to_string(max_a) + " per pass");
  }
  if (n_b > max_b) {
    return Status::Capacity("relation B has " + std::to_string(n_b) +
                            " tuples but the grid fits " +
                            std::to_string(max_b) + " per pass");
  }
  return Status::OK();
}

/// Overwrites `key` with `tuple`'s values at `columns`: the compared
/// sub-tuple the grid's equality cells see. Reusing one buffer keeps a
/// probe allocation-free.
void KeyOf(const Tuple& tuple, const std::vector<size_t>& columns, Tuple* key) {
  key->clear();
  for (size_t c : columns) key->push_back(tuple[c]);
}

}  // namespace

Result<BitVector> FastMembership(const Relation& a, const Relation& b,
                                 const std::vector<size_t>& a_columns,
                                 const std::vector<size_t>& b_columns,
                                 arrays::EdgeRule edge_rule,
                                 const arrays::MembershipOptions& options,
                                 arrays::ArrayRunInfo* info) {
  if (a_columns.empty() || a_columns.size() != b_columns.size()) {
    return Status::InvalidArgument(
        "membership query needs equal, non-empty column lists");
  }
  if (a.num_tuples() == 0) {
    return BitVector(0);
  }
  const size_t rows = EffectiveRows(options.mode, a.num_tuples(),
                                    b.num_tuples(), options.rows);
  SYSTOLIC_RETURN_NOT_OK(
      CheckGridCapacity(options.mode, a.num_tuples(), b.num_tuples(), rows));
  if (info != nullptr) {
    info->cycles = MembershipCycles(options.mode, a.num_tuples(),
                                    b.num_tuples(), a_columns.size(),
                                    options.rows);
    info->sim = sim::SimStats{};
  }
  // Bit i is set iff some admitted b_j has a_i's key. The §5 lower-triangle
  // rule admits j < min(i, n_b), so the set grows by b_{i-1} just before
  // a_i is probed.
  const std::vector<Tuple>& as = a.tuples();
  const std::vector<Tuple>& bs = b.tuples();
  const bool triangle = edge_rule == arrays::EdgeRule::kStrictLowerTriangle;
  std::unordered_set<Tuple, rel::TupleHash> keys;
  keys.reserve(bs.size());
  Tuple key;
  if (!triangle) {
    for (const Tuple& tb : bs) {
      KeyOf(tb, b_columns, &key);
      keys.insert(key);
    }
  }
  BitVector bits(as.size(), false);
  for (size_t i = 0; i < as.size(); ++i) {
    if (triangle && i > 0 && i <= bs.size()) {
      KeyOf(bs[i - 1], b_columns, &key);
      keys.insert(key);
    }
    KeyOf(as[i], a_columns, &key);
    if (keys.contains(key)) bits.Set(i, true);
  }
  return bits;
}

Result<arrays::JoinArrayResult> FastJoin(const Relation& a, const Relation& b,
                                         const rel::JoinSpec& spec,
                                         const arrays::JoinArrayOptions& options) {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateJoinSpec(a.schema(), b.schema(), spec));
  SYSTOLIC_ASSIGN_OR_RETURN(
      rel::Schema out_schema,
      rel::JoinOutputSchema(a.schema(), b.schema(), spec));
  arrays::JoinArrayResult result(
      Relation(std::move(out_schema), rel::RelationKind::kMulti));
  if (a.num_tuples() == 0 || b.num_tuples() == 0) {
    return result;
  }
  const size_t rows = EffectiveRows(options.mode, a.num_tuples(),
                                    b.num_tuples(), options.rows);
  SYSTOLIC_RETURN_NOT_OK(
      CheckGridCapacity(options.mode, a.num_tuples(), b.num_tuples(), rows));
  result.info.cycles =
      JoinCycles(options.mode, a.num_tuples(), b.num_tuples(),
                 spec.left_columns.size(), options.rows);
  // Matches come out (i, j)-lexicographic, the order SystolicJoin's sorted
  // sink harvest produces: A is walked in order, and each A tuple meets
  // its B partners in ascending j.
  const std::vector<Tuple>& as = a.tuples();
  const std::vector<Tuple>& bs = b.tuples();
  const auto emit = [&](size_t i, size_t j) {
    result.matches.emplace_back(i, j);
    return result.relation.Append(rel::JoinConcatenate(as[i], bs[j], spec));
  };
  if (spec.op == rel::ComparisonOp::kEq) {
    std::unordered_map<Tuple, std::vector<size_t>, rel::TupleHash> partners;
    Tuple key;
    for (size_t j = 0; j < bs.size(); ++j) {
      KeyOf(bs[j], spec.right_columns, &key);
      partners[key].push_back(j);
    }
    for (size_t i = 0; i < as.size(); ++i) {
      KeyOf(as[i], spec.left_columns, &key);
      const auto it = partners.find(key);
      if (it == partners.end()) continue;
      for (size_t j : it->second) SYSTOLIC_RETURN_NOT_OK(emit(i, j));
    }
    return result;
  }
  // θ-joins: every compared column must satisfy the op, as every column
  // of the grid's comparators must.
  const auto holds = [&spec](const Tuple& ta, const Tuple& tb) {
    for (size_t c = 0; c < spec.left_columns.size(); ++c) {
      if (!rel::ApplyComparison(spec.op, ta[spec.left_columns[c]],
                                tb[spec.right_columns[c]])) {
        return false;
      }
    }
    return true;
  };
  for (size_t i = 0; i < as.size(); ++i) {
    for (size_t j = 0; j < bs.size(); ++j) {
      if (holds(as[i], bs[j])) SYSTOLIC_RETURN_NOT_OK(emit(i, j));
    }
  }
  return result;
}

Result<arrays::DivisionArrayResult> FastDivision(const Relation& a,
                                                 const Relation& b,
                                                 const rel::DivisionSpec& spec) {
  SYSTOLIC_RETURN_NOT_OK(rel::ValidateDivisionSpec(a.schema(), b.schema(), spec));
  const std::vector<size_t> quotient_columns =
      rel::DivisionQuotientColumns(a.schema(), spec);
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Schema out_schema,
                            rel::DivisionOutputSchema(a.schema(), spec));
  arrays::DivisionArrayResult result(
      Relation(std::move(out_schema), rel::RelationKind::kSet));
  if (a.num_tuples() == 0) {
    return result;
  }

  // The same §2.3 sub-tuple packing the RTL driver performs: fresh codes in
  // first-occurrence order, A's divisor part and B sharing one code space.
  using Codes = std::unordered_map<Tuple, rel::Code, rel::TupleHash>;
  Codes x_codes;
  std::vector<Tuple> x_order;  // distinct quotient values, in A order
  Codes y_codes;
  const auto pack = [](const Tuple& tuple, const std::vector<size_t>& columns,
                       Codes* codes, std::vector<Tuple>* order) {
    Tuple sub;
    sub.reserve(columns.size());
    for (size_t c : columns) sub.push_back(tuple[c]);
    auto [it, inserted] =
        codes->emplace(std::move(sub), static_cast<rel::Code>(codes->size()));
    if (inserted && order != nullptr) order->push_back(it->first);
    return it->second;
  };
  std::vector<std::pair<rel::Code, rel::Code>> pairs;  // (x, y) per A tuple
  pairs.reserve(a.num_tuples());
  for (const rel::Tuple& ta : a.tuples()) {
    const rel::Code x = pack(ta, quotient_columns, &x_codes, &x_order);
    const rel::Code y = pack(ta, spec.a_columns, &y_codes, nullptr);
    pairs.emplace_back(x, y);
  }
  // Distinct divisor values, in B order. Packing is a bijection, so a
  // value's first sighting is its packed code's first sighting.
  std::vector<rel::Code> divisor;
  {
    std::unordered_set<rel::Code> seen;
    for (const Tuple& tb : b.tuples()) {
      const rel::Code packed = pack(tb, spec.b_columns, &y_codes, nullptr);
      if (seen.insert(packed).second) divisor.push_back(packed);
    }
  }

  const size_t P = x_order.size();
  const size_t Q = divisor.size();
  result.dividend_rows = P;
  result.divisor_cells = Q;
  // M: latest pulse at which a gated y element enters its dividend row
  // (feed position + row index) — the data-dependent term of the phase-1
  // quiescence cycle.
  size_t m_feed = 0;
  for (size_t t = 0; t < pairs.size(); ++t) {
    m_feed = std::max(m_feed, t + static_cast<size_t>(pairs[t].first));
  }
  result.info.cycles = DivisionCycles(pairs.size(), P, Q, m_feed);

  // Row p's divisor cells raise a match flag per distinct divisor value that
  // some (x = p, y) pair carried past them; the phase-2 AND probe survives
  // iff every flag of the row is up. Flags are one packed word run per row.
  std::unordered_map<rel::Code, size_t> divisor_index;
  divisor_index.reserve(Q);
  for (size_t q = 0; q < Q; ++q) divisor_index.emplace(divisor[q], q);
  constexpr size_t kWordBits = 64;
  const size_t q_words = (Q + kWordBits - 1) / kWordBits;
  std::vector<std::vector<uint64_t>> matched(P,
                                             std::vector<uint64_t>(q_words, 0));
  for (const auto& [x, y] : pairs) {
    const auto it = divisor_index.find(y);
    if (it == divisor_index.end()) continue;  // y not in the divisor: no flag
    matched[static_cast<size_t>(x)][it->second / kWordBits] |=
        uint64_t{1} << (it->second % kWordBits);
  }
  for (size_t p = 0; p < P; ++p) {
    size_t flags = 0;
    for (uint64_t word : matched[p]) {
      flags += static_cast<size_t>(std::popcount(word));
    }
    if (flags == Q) {
      SYSTOLIC_RETURN_NOT_OK(result.relation.Append(x_order[p]));
    }
  }
  return result;
}

Result<arrays::SelectionResult> FastSelect(
    const Relation& a,
    const std::vector<arrays::SelectionPredicate>& predicates) {
  SYSTOLIC_RETURN_NOT_OK(arrays::ValidateSelection(a.schema(), predicates));
  if (predicates.empty()) {
    arrays::SelectionResult all(a);
    all.selected = BitVector(a.num_tuples(), true);
    return all;
  }
  if (a.num_tuples() == 0) {
    arrays::SelectionResult empty(Relation(a.schema(), rel::RelationKind::kSet));
    return empty;
  }
  // The selection cell compares the tuple element (left) to its preloaded
  // constant (right); bit i is the AND over every predicate's cell.
  BitVector bits(a.num_tuples(), false);
  for (size_t i = 0; i < a.num_tuples(); ++i) {
    const Tuple& t = a.tuples()[i];
    bits.Set(i, std::all_of(predicates.begin(), predicates.end(),
                            [&t](const arrays::SelectionPredicate& p) {
                              return rel::ApplyComparison(p.op, t[p.column],
                                                          p.constant);
                            }));
  }
  SYSTOLIC_ASSIGN_OR_RETURN(Relation out,
                            a.Filter(bits, rel::RelationKind::kSet));
  arrays::SelectionResult result(std::move(out));
  result.selected = std::move(bits);
  result.info.cycles = SelectionCycles(a.num_tuples(), predicates.size());
  return result;
}

}  // namespace fastpath
}  // namespace systolic
