#include "workload.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "relational/domain.h"
#include "relational/generator.h"
#include "relational/ops_hash.h"
#include "relational/schema.h"
#include "system/command.h"
#include "system/machine.h"
#include "util/rng.h"
#include "stats.h"

namespace systolic {
namespace perfbench {
namespace {

using Kind = OpCall::Kind;

// Every column of every relation draws from this one int64 domain, so any
// two relations of equal arity are union-compatible and any two columns
// joinable.
constexpr int64_t kDomainSize = 1000;
constexpr int64_t kSelectBelow = kDomainSize / 2;
constexpr size_t kDivisorValues = 4;

// JOIN ... ON c0 = c0 and DIVIDE ... ON c2 = c0, in every form a call takes.
const rel::JoinSpec kJoinSpec{{0}, {0}, rel::ComparisonOp::kEq};
const rel::DivisionSpec kDivisionSpec{{2}, {0}};

std::vector<arrays::SelectionPredicate> SelectBelow(int64_t constant) {
  return {arrays::SelectionPredicate{0, rel::ComparisonOp::kLt, constant}};
}

rel::Schema Schema3(const std::shared_ptr<rel::Domain>& domain) {
  return rel::Schema({{"c0", domain}, {"c1", domain}, {"c2", domain}});
}

uint64_t SubSeed(uint64_t seed, uint64_t index) {
  return seed * 1'000'003ULL + index * 7919ULL + 1;
}

Status AddPair(RelationMap* out, const rel::Schema& schema,
               const std::string& a, const std::string& b, size_t n,
               uint64_t seed) {
  rel::PairOptions options;
  options.base.num_tuples = n;
  options.base.domain_size = kDomainSize;
  options.base.seed = seed;
  options.b_num_tuples = n;
  options.overlap_fraction = 0.5;
  SYSTOLIC_ASSIGN_OR_RETURN(rel::RelationPair pair,
                            rel::GenerateOverlappingPair(schema, options));
  out->insert_or_assign(a, std::move(pair.a));
  out->insert_or_assign(b, std::move(pair.b));
  return Status::OK();
}

Status AddRandom(RelationMap* out, const rel::Schema& schema,
                 const std::string& name, size_t n, uint64_t seed) {
  rel::GeneratorOptions options;
  options.num_tuples = n;
  options.domain_size = kDomainSize;
  options.seed = seed;
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation relation,
                            rel::GenerateRelation(schema, options));
  out->insert_or_assign(name, std::move(relation));
  return Status::OK();
}

Status AddWithDuplicates(RelationMap* out, const rel::Schema& schema,
                         const std::string& name, size_t n, uint64_t seed) {
  rel::GeneratorOptions options;
  options.num_tuples = n;
  options.domain_size = kDomainSize;
  options.seed = seed;
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation relation,
                            rel::GenerateWithDuplicates(schema, options, 2.0));
  out->insert_or_assign(name, std::move(relation));
  return Status::OK();
}

// Dividend x(c0, c1, c2) and one-column divisor y(c0): each quotient key
// (c0, c1) carries each divisor value with probability 0.8, so about 40%
// of the keys divide and the quotient is never empty in practice.
Status AddDivision(RelationMap* out,
                   const std::shared_ptr<rel::Domain>& domain, size_t n,
                   uint64_t seed) {
  Rng rng(seed);
  rel::Relation y(rel::Schema({{"c0", domain}}), rel::RelationKind::kSet);
  std::vector<int64_t> divisor;
  while (divisor.size() < kDivisorValues) {
    const int64_t value = rng.Uniform(0, kDomainSize - 1);
    if (std::find(divisor.begin(), divisor.end(), value) != divisor.end()) {
      continue;
    }
    divisor.push_back(value);
    SYSTOLIC_RETURN_NOT_OK(y.Append({value}));
  }
  rel::Relation x(Schema3(domain), rel::RelationKind::kMulti);
  while (x.num_tuples() < n) {
    const int64_t k0 = rng.Uniform(0, kDomainSize - 1);
    const int64_t k1 = rng.Uniform(0, kDomainSize - 1);
    for (const int64_t value : divisor) {
      if (x.num_tuples() < n && rng.Bernoulli(0.8)) {
        SYSTOLIC_RETURN_NOT_OK(x.Append({k0, k1, value}));
      }
    }
  }
  out->insert_or_assign("x", std::move(x));
  out->insert_or_assign("y", std::move(y));
  return Status::OK();
}

Result<const rel::Relation*> Get(const RelationMap& relations,
                                 const std::string& name) {
  const auto it = relations.find(name);
  if (it == relations.end()) {
    return Status::NotFound("workload has no relation '" + name + "'");
  }
  return &it->second;
}

Request OkRequest(std::string line, std::string marker) {
  Request request;
  request.line = std::move(line);
  request.expect.marker = std::move(marker);
  return request;
}

Request Release(const std::string& name) {
  return OkRequest("RELEASE " + name, "");  // RELEASE prints nothing
}

// Expected counts of one command: tuples (and the content a PRINT must
// show) from hashops, passes and pulses from the embedded engine; the two
// results must agree tuple for tuple or the workload itself is broken.
struct Expected {
  rel::Relation relation;
  size_t passes = 0;
  size_t pulses = 0;
};

Result<Expected> Compute(const db::Engine& engine, const OpCall& call,
                         const RelationMap& relations) {
  SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation floor, RunHash(call, relations));
  SYSTOLIC_ASSIGN_OR_RETURN(db::EngineResult ran,
                            RunEngine(engine, call, relations));
  if (ran.relation.ToString() != floor.ToString()) {
    return Status::Internal(std::string("engine and hashops disagree on ") +
                            OpKindName(call.kind) + " " + call.a + " " +
                            call.b);
  }
  Expected expected{std::move(floor), ran.stats.passes, ran.stats.cycles};
  return expected;
}

// Writer k of durable_mixed computes these into slots 0..3 and publishes
// each slot as p<k>s<slot>.
std::vector<OpCall> WriterCalls(size_t k) {
  const std::string first = k == 0 ? "a" : "c";
  return {{Kind::kIntersect, first, "b", 0},
          {Kind::kUnion, first, "b", 0},
          {Kind::kDifference, first, "b", 0},
          {Kind::kDedup, "d", "", 0}};
}

std::string Slot(char prefix, size_t k, size_t s) {
  return std::string(1, prefix) + std::to_string(k) + "s" + std::to_string(s);
}

// What durable_mixed's writers publish, slot name -> content: readers LOAD
// these, and the priming pass makes them exist before the first set-up.
Result<RelationMap> PublishedRelations(const Workload& workload) {
  const db::Engine engine(workload.device);
  RelationMap published;
  for (size_t k = 0; k < 2; ++k) {
    const std::vector<OpCall> calls = WriterCalls(k);
    for (size_t s = 0; s < calls.size(); ++s) {
      SYSTOLIC_ASSIGN_OR_RETURN(
          db::EngineResult result,
          RunEngine(engine, calls[s], workload.relations));
      published.emplace(Slot('p', k, s), std::move(result.relation));
    }
  }
  return published;
}

Result<Operation> CommandOp(const db::Engine& engine, const OpCall& call,
                            const std::string& out,
                            const RelationMap& relations, bool release) {
  SYSTOLIC_ASSIGN_OR_RETURN(Expected expected,
                            Compute(engine, call, relations));
  Operation op;
  op.name = OpKindName(call.kind);
  Request request;
  request.line = CommandText(call, out);
  request.expect.kind = Expect::Kind::kStep;
  request.expect.tuples = expected.relation.num_tuples();
  request.expect.passes = expected.passes;
  request.expect.pulses = expected.pulses;
  op.timed.push_back(std::move(request));
  op.print_buffer = out;
  op.expected_print = expected.relation.ToString();
  if (release) op.after.push_back(Release(out));
  return op;
}

// The planner transaction of tiled_txn: dedup, intersect, select. Its
// expected pulses come from an embedded interpreter running the same lines
// (the planner rewrites the steps, so no single Engine call matches), its
// sink content from hashops.
Result<Operation> TxnOp(const Workload& workload) {
  machine::Machine machine(MachineFor(workload.device));
  for (const auto& [name, relation] : workload.relations) {
    SYSTOLIC_RETURN_NOT_OK(machine.StoreBuffer(name, relation));
  }
  std::ostringstream sink;
  machine::CommandInterpreter interpreter(&machine, &sink);
  Operation op;
  op.name = "TXN";
  op.timed.push_back(OkRequest("BEGIN", "-- transaction started"));
  SYSTOLIC_RETURN_NOT_OK(interpreter.Execute("BEGIN"));
  for (const auto& [call, out] : workload.txn_steps) {
    op.timed.push_back(OkRequest(CommandText(call, out), "-- queued step"));
    SYSTOLIC_RETURN_NOT_OK(interpreter.Execute(CommandText(call, out)));
  }
  sink.str("");
  SYSTOLIC_RETURN_NOT_OK(interpreter.Execute("COMMIT"));
  Request commit;
  commit.line = "COMMIT";
  commit.expect.kind = Expect::Kind::kCommitted;
  if (!ParseMeasuredPulses(sink.str(), &commit.expect.pulses)) {
    return Status::Internal("embedded COMMIT printed no measured pulses");
  }
  op.timed.push_back(std::move(commit));

  // Sink content from hashops, step by step.
  RelationMap scratch = workload.relations;
  for (const auto& [call, out] : workload.txn_steps) {
    SYSTOLIC_ASSIGN_OR_RETURN(rel::Relation result, RunHash(call, scratch));
    scratch.insert_or_assign(out, std::move(result));
  }
  const std::string& result = workload.txn_steps.back().second;
  SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* embedded,
                            machine.Buffer(result));
  op.expected_print = scratch.at(result).ToString();
  if (embedded->ToString() != op.expected_print) {
    return Status::Internal("embedded transaction and hashops disagree");
  }
  op.print_buffer = result;
  // Release exactly the outputs the commit materialised (the planner may
  // elide intermediates).
  for (const auto& step : workload.txn_steps) {
    if (machine.Buffer(step.second).ok()) {
      op.after.push_back(Release(step.second));
    }
  }
  return op;
}

}  // namespace

machine::MachineConfig MachineFor(const db::DeviceConfig& device) {
  machine::MachineConfig config;
  config.num_memories = 64;
  config.device = device;
  return config;
}

const char* OpKindName(Kind kind) {
  switch (kind) {
    case Kind::kSelect: return "SELECT";
    case Kind::kUnion: return "UNION";
    case Kind::kJoin: return "JOIN";
    case Kind::kIntersect: return "INTERSECT";
    case Kind::kDifference: return "DIFFERENCE";
    case Kind::kDedup: return "DEDUP";
    case Kind::kDivide: return "DIVIDE";
  }
  return "?";
}

std::string CommandText(const OpCall& call, const std::string& out) {
  std::string text = OpKindName(call.kind);
  switch (call.kind) {
    case Kind::kSelect:
      text += " " + call.a + " WHERE c0 < " + std::to_string(call.constant);
      break;
    case Kind::kDedup:
      text += " " + call.a;
      break;
    case Kind::kJoin:
      text += " " + call.a + " " + call.b + " ON c0 = c0";
      break;
    case Kind::kDivide:
      text += " " + call.a + " " + call.b + " ON c2 = c0";
      break;
    default:
      text += " " + call.a + " " + call.b;
      break;
  }
  return text + " -> " + out;
}

void AppendStep(const OpCall& call, const std::string& out,
                machine::Transaction* txn) {
  switch (call.kind) {
    case Kind::kSelect:
      txn->Select(call.a, SelectBelow(call.constant), out);
      break;
    case Kind::kUnion: txn->Union(call.a, call.b, out); break;
    case Kind::kJoin:
      txn->Join(call.a, call.b, kJoinSpec, out);
      break;
    case Kind::kIntersect: txn->Intersect(call.a, call.b, out); break;
    case Kind::kDifference: txn->Difference(call.a, call.b, out); break;
    case Kind::kDedup: txn->RemoveDuplicates(call.a, out); break;
    case Kind::kDivide:
      txn->Divide(call.a, call.b, kDivisionSpec, out);
      break;
  }
}

Result<db::EngineResult> RunEngine(const db::Engine& engine,
                                   const OpCall& call,
                                   const RelationMap& relations) {
  SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* a, Get(relations, call.a));
  const rel::Relation* b = nullptr;
  if (call.kind != Kind::kSelect && call.kind != Kind::kDedup) {
    SYSTOLIC_ASSIGN_OR_RETURN(b, Get(relations, call.b));
  }
  switch (call.kind) {
    case Kind::kSelect:
      return engine.Select(*a, SelectBelow(call.constant));
    case Kind::kUnion: return engine.Union(*a, *b);
    case Kind::kJoin:
      return engine.Join(*a, *b, kJoinSpec);
    case Kind::kIntersect: return engine.Intersect(*a, *b);
    case Kind::kDifference: return engine.Subtract(*a, *b);
    case Kind::kDedup: return engine.RemoveDuplicates(*a);
    case Kind::kDivide:
      return engine.Divide(*a, *b, kDivisionSpec);
  }
  return Status::InvalidArgument("unknown op");
}

Result<rel::Relation> RunHash(const OpCall& call,
                              const RelationMap& relations) {
  SYSTOLIC_ASSIGN_OR_RETURN(const rel::Relation* a, Get(relations, call.a));
  const rel::Relation* b = nullptr;
  if (call.kind != Kind::kSelect && call.kind != Kind::kDedup) {
    SYSTOLIC_ASSIGN_OR_RETURN(b, Get(relations, call.b));
  }
  namespace hashops = rel::hashops;
  switch (call.kind) {
    case Kind::kSelect: {
      rel::Relation out(a->schema(), a->kind());
      for (const rel::Tuple& t : a->tuples()) {
        if (t[0] < call.constant) SYSTOLIC_RETURN_NOT_OK(out.Append(t));
      }
      return out;
    }
    case Kind::kUnion: return hashops::Union(*a, *b);
    case Kind::kJoin:
      return hashops::Join(*a, *b, kJoinSpec);
    case Kind::kIntersect: return hashops::Intersection(*a, *b);
    case Kind::kDifference: return hashops::Difference(*a, *b);
    case Kind::kDedup: return hashops::RemoveDuplicates(*a);
    case Kind::kDivide:
      return hashops::Division(*a, *b, kDivisionSpec);
  }
  return Status::InvalidArgument("unknown op");
}

Result<WorkloadShape> ShapeOf(const std::string& name) {
  WorkloadShape shape;
  shape.name = name;
  if (name == "wire_small") {
    // The defaults: in memory, fast backend, untiled, one chip.
  } else if (name == "tiled_txn") {
    shape.chips = 4;
    shape.rows = 31;
    shape.print_every = 4;
  } else if (name == "durable_mixed") {
    shape.durable = true;
    shape.checkpoint_every = 16;
  } else if (name == "rtl_sim") {
    shape.chips = 4;
    shape.rows = 63;
    shape.backend = "rtl";
    shape.print_every = 4;
  } else {
    return Status::NotFound("unknown workload '" + name + "'");
  }
  return shape;
}

Result<RelationMap> GenerateRelations(const WorkloadShape& shape,
                                      uint64_t seed) {
  auto domain = rel::Domain::Make("v", rel::ValueType::kInt64);
  const rel::Schema schema = Schema3(domain);
  RelationMap out;
  // Main size of the workload; the join partner c and the dividend are half
  // of it on tiled_txn, where n^2 tiles would otherwise dominate the cycle.
  const bool tiled = shape.name == "tiled_txn";
  const size_t n = tiled ? 2048 : 256;
  const size_t half = tiled ? n / 2 : n;
  SYSTOLIC_RETURN_NOT_OK(AddPair(&out, schema, "a", "b", n, SubSeed(seed, 1)));
  SYSTOLIC_RETURN_NOT_OK(AddRandom(&out, schema, "c", half, SubSeed(seed, 2)));
  SYSTOLIC_RETURN_NOT_OK(
      AddWithDuplicates(&out, schema, "d", tiled ? 1536 : n, SubSeed(seed, 3)));
  SYSTOLIC_RETURN_NOT_OK(AddDivision(&out, domain, half, SubSeed(seed, 4)));
  if (shape.name == "wire_small") {
    SYSTOLIC_RETURN_NOT_OK(
        AddPair(&out, schema, "a64", "b64", 64, SubSeed(seed, 5)));
    SYSTOLIC_RETURN_NOT_OK(
        AddPair(&out, schema, "a128", "b128", 128, SubSeed(seed, 6)));
  }
  return out;
}

Result<Workload> BuildWorkload(const WorkloadShape& shape,
                               RelationMap relations) {
  Workload w;
  w.shape = shape;
  w.relations = std::move(relations);
  w.device.rows = shape.rows;
  w.device.num_chips = shape.chips;
  w.device.backend = shape.backend == "rtl" ? fastpath::BackendPolicy::kRtl
                                            : fastpath::BackendPolicy::kFast;
  const db::Engine engine(w.device);
  w.layer_calls = {
      {Kind::kIntersect, "a", "b", 0}, {Kind::kDifference, "a", "b", 0},
      {Kind::kDedup, "d", "", 0},      {Kind::kJoin, "c", "b", 0},
      {Kind::kDivide, "x", "y", 0},    {Kind::kSelect, "a", "", kSelectBelow},
  };
  w.txn_steps = {{{Kind::kDedup, "c", "", 0}, "t1"},
                 {{Kind::kIntersect, "t1", "b", 0}, "t2"},
                 {{Kind::kSelect, "t2", "", kSelectBelow}, "t3"}};

  auto setup_for = [&](const std::vector<std::string>& loads,
                       bool durability_off) {
    std::vector<Request> setup;
    setup.push_back(OkRequest("SET BACKEND " + shape.backend, "-- backend"));
    if (durability_off) {
      setup.push_back(OkRequest("SET DURABILITY off", "-- durability off"));
    }
    for (const std::string& name : loads) {
      Request load;
      load.line = "LOAD " + name;
      load.expect.kind = Expect::Kind::kLoaded;
      load.expect.tuples = w.relations.at(name).num_tuples();
      setup.push_back(std::move(load));
    }
    return setup;
  };

  if (shape.name == "wire_small") {
    std::vector<OpCall> calls;
    for (const std::string size : {"64", "128", ""}) {
      const std::string a = "a" + size;
      const std::string b = "b" + size;
      calls.push_back({Kind::kSelect, a, "", kSelectBelow});
      calls.push_back({Kind::kUnion, a, b, 0});
      calls.push_back({Kind::kJoin, a, b, 0});
      calls.push_back({Kind::kIntersect, a, b, 0});
    }
    constexpr size_t kConnections = 4;
    for (size_t k = 0; k < kConnections; ++k) {
      ClientPlan plan;
      plan.role = "client";
      plan.setup = setup_for({"a64", "b64", "a128", "b128", "a", "b"}, false);
      // Every session publishes its outputs to the shared catalog, so each
      // connection writes its own name (a shared one would make concurrent
      // commits lose first-committer-wins), and the connections start at
      // staggered points of the cycle.
      const size_t offset = k * calls.size() / kConnections;
      for (size_t i = 0; i < calls.size(); ++i) {
        SYSTOLIC_ASSIGN_OR_RETURN(
            Operation op,
            CommandOp(engine, calls[(offset + i) % calls.size()],
                      "o" + std::to_string(k), w.relations, true));
        plan.cycle.push_back(std::move(op));
      }
      w.clients.push_back(std::move(plan));
    }
  } else if (shape.name == "tiled_txn" || shape.name == "rtl_sim") {
    ClientPlan plan;
    plan.role = "client";
    const bool txn = shape.name == "tiled_txn";
    plan.setup = setup_for({"a", "b", "c", "d", "x", "y"}, false);
    std::vector<OpCall> calls = {
        {Kind::kIntersect, "a", "b", 0}, {Kind::kDifference, "c", "b", 0},
        {Kind::kDedup, "d", "", 0},      {Kind::kJoin, "c", "b", 0},
        {Kind::kDivide, "x", "y", 0}};
    if (!txn) calls.push_back({Kind::kUnion, "a", "b", 0});
    for (size_t i = 0; i < calls.size(); ++i) {
      SYSTOLIC_ASSIGN_OR_RETURN(
          Operation op, CommandOp(engine, calls[i], "o", w.relations, true));
      plan.cycle.push_back(std::move(op));
      // A planner transaction after every second command.
      if (txn && i % 2 == 1) {
        SYSTOLIC_ASSIGN_OR_RETURN(Operation t, TxnOp(w));
        plan.cycle.push_back(std::move(t));
      }
    }
    w.clients.push_back(std::move(plan));
  } else if (shape.name == "durable_mixed") {
    SYSTOLIC_ASSIGN_OR_RETURN(RelationMap published, PublishedRelations(w));
    // Writers 0 and 1 publish p<k>s<slot>; readers 0 and 1 read writer k's.
    for (size_t k = 0; k < 2; ++k) {
      ClientPlan plan;
      plan.role = "writer";
      plan.setup = setup_for({k == 0 ? "a" : "c", "b", "d"}, false);
      const std::vector<OpCall> calls = WriterCalls(k);
      for (size_t s = 0; s < calls.size(); ++s) {
        const std::string out = Slot('w', k, s);
        const std::string pub = Slot('p', k, s);
        SYSTOLIC_ASSIGN_OR_RETURN(
            Operation op, CommandOp(engine, calls[s], out, w.relations, false));
        plan.cycle.push_back(std::move(op));
        Operation store;
        store.name = "STORE";
        store.timed.push_back(
            OkRequest("STORE " + out + " AS " + pub, "-- stored " + out));
        store.after.push_back(Release(out));
        plan.cycle.push_back(std::move(store));
      }
      w.clients.push_back(std::move(plan));
    }
    for (size_t k = 0; k < 2; ++k) {
      ClientPlan plan;
      plan.role = "reader";
      plan.setup = setup_for({}, true);
      for (size_t s = 0; s < 4; ++s) {
        const std::string pub = Slot('p', k, s);
        Operation load;
        load.name = "LOAD";
        Request request;
        request.line = "LOAD " + pub;
        request.expect.kind = Expect::Kind::kLoaded;
        request.expect.tuples = published.at(pub).num_tuples();
        load.timed.push_back(std::move(request));
        plan.cycle.push_back(std::move(load));
        SYSTOLIC_ASSIGN_OR_RETURN(
            Operation query,
            CommandOp(engine, OpCall{Kind::kSelect, pub, "", kSelectBelow},
                      "r" + std::to_string(k), published, true));
        query.after.push_back(Release(pub));
        plan.cycle.push_back(std::move(query));
      }
      w.clients.push_back(std::move(plan));
    }
  }
  return w;
}

}  // namespace perfbench
}  // namespace systolic
