#include "layers.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/engine.h"
#include "planner/physical.h"
#include "planner/plan.h"
#include "server/protocol.h"
#include "server/reliable_client.h"
#include "server/server.h"
#include "server/shared_catalog.h"
#include "system/command.h"
#include "system/machine.h"
#include "system/scratchpad/scratchpad.h"

namespace systolic {
namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Calls `fn` at least `min_reps` and at most `max_reps` times, stopping
// early once `budget_s` has passed; returns the per-call milliseconds. Each
// call is a child span of `parent`.
Result<std::vector<double>> Time(SpanRecorder* spans, uint64_t parent,
                                 const std::string& name, size_t min_reps,
                                 size_t max_reps, double budget_s,
                                 const std::function<Status()>& fn) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < max_reps &&
         (samples.size() < min_reps || MsSince(start) < budget_s * 1000)) {
    const uint64_t span = spans->Begin(name, parent);
    const auto t0 = Clock::now();
    const Status status = fn();
    samples.push_back(MsSince(t0));
    spans->End(span);
    if (!status.ok()) {
      return Status::Internal(name + ": " + status.ToString());
    }
  }
  return samples;
}

Status Ok(const Result<db::EngineResult>& result) { return result.status(); }

// "INTERSECT" -> "intersect", for metric names.
std::string Lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

// `relation`'s first `n` tuples.
rel::Relation Head(const rel::Relation& relation, size_t n) {
  rel::Relation out(relation.schema(), relation.kind());
  for (size_t i = 0; i < std::min(n, relation.num_tuples()); ++i) {
    (void)out.Append(relation.tuple(i));
  }
  return out;
}

class Replay {
 public:
  Replay(const LayerContext& context, std::vector<Metric>* out)
      : c_(context), w_(*context.workload), spans_(context.spans), out_(out) {}

  Status RunAll() {
    SYSTOLIC_RETURN_NOT_OK(WireEcho());
    SYSTOLIC_RETURN_NOT_OK(Chain());
    SYSTOLIC_RETURN_NOT_OK(Planner());
    SYSTOLIC_RETURN_NOT_OK(EngineShape());
    SYSTOLIC_RETURN_NOT_OK(Dma());
    SYSTOLIC_RETURN_NOT_OK(Rtl());
    SYSTOLIC_RETURN_NOT_OK(Catalog());
    SYSTOLIC_RETURN_NOT_OK(Durability());
    return Status::OK();
  }

 private:
  void Emit(const std::string& name, double value, const std::string& unit,
            const std::string& note) {
    out_->push_back({name, value, unit, note});
  }

  static std::string N(const std::vector<double>& samples) {
    return "n=" + std::to_string(samples.size());
  }

  // server/protocol: one 64-byte frame echoed over a loopback PosixWire
  // pair, with no session or engine behind it.
  Status WireEcho() {
    const uint64_t root = spans_->Begin("layer.wire_echo", 0);
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listener < 0) return Status::IOError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      ::close(listener);
      return Status::IOError("loopback listen failed");
    }
    auto dialed = server::PosixWire::Dial(ntohs(addr.sin_port));
    const int accepted = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    ::close(listener);
    if (!dialed.ok() || accepted < 0) {
      if (accepted >= 0) ::close(accepted);
      return Status::IOError("loopback connect failed");
    }
    std::unique_ptr<server::PosixWire> client = std::move(dialed).ValueOrDie();
    server::PosixWire echo_side(accepted);
    std::thread echo([&] {
      for (;;) {
        bool eof = false;
        auto frame = server::ReadFrame(echo_side, &eof, 30'000, 30'000);
        if (!frame.ok()) return;
        if (!server::WriteFrame(echo_side, frame.ValueOrDie(), 30'000).ok()) {
          return;
        }
      }
    });
    const std::string payload(64, 'x');
    auto samples = Time(spans_, root, "wire.frame_echo", 10, 40, 2.0, [&] {
      SYSTOLIC_RETURN_NOT_OK(server::WriteFrame(*client, payload, 30'000));
      bool eof = false;
      auto back = server::ReadFrame(*client, &eof, 30'000, 30'000);
      if (!back.ok()) return back.status();
      if (back.ValueOrDie() != payload) {
        return Status::DataCorruption("echo differs");
      }
      return Status::OK();
    });
    client->Close();
    echo.join();
    spans_->End(root);
    if (!samples.ok()) return samples.status();
    Emit("wire.frame_echo_us", Percentile(samples.ValueOrDie(), 50) * 1000,
         "us", N(samples.ValueOrDie()));
    return Status::OK();
  }

  // The same requests (the workload's layer calls) at each layer of the
  // served path: v2 client over loopback -> Session::ExecuteRequest ->
  // CommandInterpreter::Execute -> Machine::Execute -> Engine.
  Status Chain() {
    // An in-process server shaped like the served one.
    server::ServerConfig config;
    config.machine = MachineFor(db::DeviceConfig{});
    config.machine.device.rows = w_.shape.rows;
    config.num_chips = w_.shape.chips;
    SYSTOLIC_ASSIGN_OR_RETURN(std::unique_ptr<server::Server> srv,
                              server::Server::Create(config));
    for (const auto& [name, relation] : w_.relations) {
      SYSTOLIC_RETURN_NOT_OK(srv->catalog().Seed(name, relation));
    }
    SYSTOLIC_RETURN_NOT_OK(srv->Listen(0));
    Status served = Status::OK();
    std::thread serve([&] { served = srv->Serve(); });
    Status chain = ChainOn(*srv);
    srv->RequestShutdown();
    serve.join();
    SYSTOLIC_RETURN_NOT_OK(chain);
    return served;
  }

  Status ChainOn(server::Server& srv) {
    std::vector<std::string> setup = {"SET BACKEND " + w_.shape.backend};
    for (const char* name : {"a", "b", "c", "d", "x", "y"}) {
      setup.push_back(std::string("LOAD ") + name);
    }
    server::ReliableClientOptions options;
    options.port = srv.port();
    options.io_timeout_ms = 60'000;
    SYSTOLIC_ASSIGN_OR_RETURN(server::ReliableClient client,
                              server::ReliableClient::Connect(options));
    SYSTOLIC_ASSIGN_OR_RETURN(std::shared_ptr<server::Session> session,
                              srv.Connect());
    uint64_t next_id = 1;
    machine::Machine machine(MachineFor(w_.device));
    for (const auto& [name, relation] : w_.relations) {
      SYSTOLIC_RETURN_NOT_OK(machine.StoreBuffer(name, relation));
    }
    std::ostringstream sink;
    machine::CommandInterpreter interpreter(&machine, &sink);
    auto remote = [&](const std::string& line) -> Status {
      SYSTOLIC_ASSIGN_OR_RETURN(server::Client::Reply reply,
                                client.Execute(line));
      return reply.ok ? Status::OK() : Status::Internal(reply.error);
    };
    auto embedded = [&](const std::string& line) -> Status {
      SYSTOLIC_ASSIGN_OR_RETURN(server::Session::RequestOutcome outcome,
                                session->ExecuteRequest(next_id++, line));
      return outcome.payload.rfind("OK\n", 0) == 0
                 ? Status::OK()
                 : Status::Internal(outcome.payload);
    };
    for (const std::string& line : setup) {
      SYSTOLIC_RETURN_NOT_OK(remote(line));
      SYSTOLIC_RETURN_NOT_OK(embedded(line));
    }

    // Heavy workloads get fewer repetitions per call.
    const db::Engine engine(w_.device);
    const auto probe = Clock::now();
    for (const OpCall& call : w_.layer_calls) {
      SYSTOLIC_RETURN_NOT_OK(Ok(RunEngine(engine, call, w_.relations)));
    }
    const size_t reps = MsSince(probe) > 300 ? 3 : 5;

    // layer -> op -> samples
    std::map<std::string, std::map<std::string, std::vector<double>>> layer;
    double passes = 0;
    const std::string out = "lo";
    for (const OpCall& call : w_.layer_calls) {
      const std::string text = CommandText(call, out);
      const std::string op = OpKindName(call.kind);
      machine::Transaction txn;
      AppendStep(call, out, &txn);
      const std::vector<
          std::pair<std::string, std::function<Status()>>> layers = {
          {"wire", [&] { return remote(text); }},
          {"session", [&] { return embedded(text); }},
          {"command", [&] { return interpreter.Execute(text); }},
          {"machine", [&] { return machine.Execute(txn).status(); }},
          {"engine", [&] { return Ok(RunEngine(engine, call, w_.relations)); }},
      };
      const std::vector<std::function<Status()>> release = {
          [&] { return remote("RELEASE " + out); },
          [&] { return embedded("RELEASE " + out); },
          [&] { return interpreter.Execute("RELEASE " + out); },
          [&] { return machine.ReleaseBuffer(out); },
          [] { return Status::OK(); },
      };
      // Layers interleave within each repetition, so a slow spell of the
      // host hits every layer alike.
      const uint64_t root = spans_->Begin("layer.chain." + op, 0);
      for (size_t r = 0; r < reps; ++r) {
        for (size_t l = 0; l < layers.size(); ++l) {
          SYSTOLIC_ASSIGN_OR_RETURN(
              std::vector<double> one,
              Time(spans_, root, layers[l].first + "." + op, 1, 1, 0,
                   layers[l].second));
          SYSTOLIC_RETURN_NOT_OK(release[l]());
          layer[layers[l].first][op].push_back(one[0]);
        }
      }
      spans_->End(root);
      SYSTOLIC_ASSIGN_OR_RETURN(db::EngineResult ran,
                                RunEngine(engine, call, w_.relations));
      passes += static_cast<double>(ran.stats.passes);
    }
    client.Close();
    srv.Disconnect(session->id());

    // A layer's time is the mean over the calls of each call's p50, so
    // differences between layers compare the same requests.
    auto layer_ms = [&](const std::string& name) {
      double sum = 0;
      for (const auto& [op, samples] : layer[name]) {
        sum += Percentile(samples, 50);
      }
      return sum / static_cast<double>(layer[name].size());
    };
    const std::string n = "mean of per-call p50 over " +
                          std::to_string(w_.layer_calls.size()) +
                          " calls x " + std::to_string(reps) + " reps";
    const double wire = layer_ms("wire");
    const double sess = layer_ms("session");
    const double cmd = layer_ms("command");
    const double mach = layer_ms("machine");
    const double eng = layer_ms("engine");
    Emit("wire.overhead_ms", wire - sess, "ms",
         "client " + JsonNumber(wire) + " ms - session, " + n);
    Emit("session.execute_ms", sess, "ms", n);
    Emit("command.execute_ms", cmd, "ms", n);
    Emit("machine.execute_ms", mach, "ms", n);
    std::printf("# self time (minus the next layer inside): wire %.4g ms, "
                "session %.4g ms, command %.4g ms, machine %.4g ms, "
                "engine %.4g ms\n",
                wire - sess, sess - cmd, cmd - mach, mach - eng, eng);
    for (const auto& [op, samples] : layer["engine"]) {
      Emit("engine." + Lower(op) + "_ms", Percentile(samples, 50), "ms",
           N(samples));
    }
    Emit("engine.passes_per_op",
         passes / static_cast<double>(w_.layer_calls.size()), "count",
         "n=" + std::to_string(w_.layer_calls.size()));
    return Status::OK();
  }

  // planner: PlanTransaction on the workload's three-step transaction.
  Status Planner() {
    machine::Transaction txn;
    for (const auto& [call, out] : w_.txn_steps) AppendStep(call, out, &txn);
    std::map<std::string, planner::InputInfo> inputs;
    for (const auto& [name, relation] : w_.relations) {
      planner::InputInfo info;
      info.schema = relation.schema();
      info.num_tuples = relation.num_tuples();
      info.duplicate_free = planner::ProvablyDuplicateFree(relation);
      inputs.emplace(name, std::move(info));
    }
    planner::PlannerOptions options;
    options.params.default_device = w_.device;
    const uint64_t root = spans_->Begin("layer.planner", 0);
    SYSTOLIC_ASSIGN_OR_RETURN(
        std::vector<double> samples,
        Time(spans_, root, "planner.plan", 10, 200, 1.0,
             [&] { return planner::PlanTransaction(txn, inputs, options)
                       .status(); }));
    spans_->End(root);
    Emit("planner.plan_ms", Percentile(samples, 50), "ms", N(samples));
    return Status::OK();
  }

  // Median ms of `call` on `device` over the given relations.
  Result<double> EngineMs(const std::string& name,
                          const db::DeviceConfig& device, const OpCall& call,
                          const RelationMap& relations, uint64_t root) {
    const db::Engine engine(device);
    SYSTOLIC_ASSIGN_OR_RETURN(
        std::vector<double> samples,
        Time(spans_, root, name, 3, 9, 1.5,
             [&] { return Ok(RunEngine(engine, call, relations)); }));
    return Percentile(samples, 50);
  }

  // core/engine tiling and floor ratios, core/chip_pool speed-ups, hashops
  // floor rows.
  Status EngineShape() {
    const uint64_t root = spans_->Begin("layer.engine_shape", 0);
    const OpCall intersect{OpCall::Kind::kIntersect, "a", "b", 0};
    db::DeviceConfig untiled;
    untiled.backend = w_.device.backend;
    SYSTOLIC_ASSIGN_OR_RETURN(
        const double tiled_ms,
        EngineMs("engine.intersect", w_.device, intersect, w_.relations, root));
    SYSTOLIC_ASSIGN_OR_RETURN(
        const double untiled_ms,
        EngineMs("engine.intersect_untiled", untiled, intersect, w_.relations,
                 root));
    Emit("engine.tiling_x", tiled_ms / untiled_ms, "x",
         "tiled " + JsonNumber(tiled_ms) + " ms / untiled");

    for (const OpCall& call : w_.layer_calls) {
      if (call.kind == OpCall::Kind::kSelect) continue;
      const std::string op = Lower(OpKindName(call.kind));
      SYSTOLIC_ASSIGN_OR_RETURN(
          std::vector<double> samples,
          Time(spans_, root, "hash." + op, 3, 50, 0.5,
               [&] { return RunHash(call, w_.relations).status(); }));
      Emit("hash." + op + "_ms", Percentile(samples, 50), "ms", N(samples));
      if (call.kind == OpCall::Kind::kIntersect) {
        Emit("engine.hash_floor_x", tiled_ms / Percentile(samples, 50), "x",
             "engine intersect / hashops intersect");
      }
    }

    // Chip-pool speed-up: the same tiles on 1 chip and on 4.
    for (const bool rtl : {false, true}) {
      db::DeviceConfig device = w_.device;
      device.backend = rtl ? fastpath::BackendPolicy::kRtl
                           : fastpath::BackendPolicy::kFast;
      // The RTL simulator runs on at most 256-tuple operands.
      RelationMap operands = w_.relations;
      if (rtl) {
        for (auto& entry : operands) entry.second = Head(entry.second, 256);
      }
      double ms[2] = {0, 0};
      for (const size_t chips : {size_t{1}, size_t{4}}) {
        device.num_chips = chips;
        SYSTOLIC_ASSIGN_OR_RETURN(
            ms[chips == 1 ? 0 : 1],
            EngineMs(std::string("chip_pool.") + (rtl ? "rtl" : "fast") +
                         ".chips" + std::to_string(chips),
                     device, intersect, operands, root));
      }
      Emit(std::string("chip_pool.speedup_") + (rtl ? "rtl" : "fast") + "_x",
           ms[0] / ms[1], "x",
           "1 chip " + JsonNumber(ms[0]) + " ms / 4 chips " +
               JsonNumber(ms[1]) + " ms");
    }
    spans_->End(root);
    return Status::OK();
  }

  // system/scratchpad: DMA accounting at the workload's tiles per chip and
  // at fixed 1 K / 4 K / 16 K tiles.
  Status Dma() {
    const uint64_t root = spans_->Begin("layer.dma", 0);
    const db::Engine engine(w_.device);
    SYSTOLIC_ASSIGN_OR_RETURN(
        db::EngineResult ran,
        RunEngine(engine, {OpCall::Kind::kIntersect, "a", "b", 0},
                  w_.relations));
    const size_t tiles = std::max<size_t>(
        1, ran.stats.passes / std::max<size_t>(1, w_.shape.chips));
    size_t sink = 0;
    auto account = [&](size_t n, size_t min_reps) {
      return Time(spans_, root, "spad.account." + std::to_string(n), min_reps,
                  200, 0.5, [&, n] {
                    sink += AccountDmaTiles(n);
                    return Status::OK();
                  });
    };
    SYSTOLIC_ASSIGN_OR_RETURN(std::vector<double> own, account(tiles, 5));
    Emit("spad.dma_account_ms", Percentile(own, 50), "ms",
         std::to_string(tiles) + " tiles/chip, " + N(own));
    double leg[3] = {0, 0, 0};
    const size_t sizes[3] = {1024, 4096, 16384};
    for (size_t i = 0; i < 3; ++i) {
      SYSTOLIC_ASSIGN_OR_RETURN(std::vector<double> samples,
                                account(sizes[i], 3));
      leg[i] = Percentile(samples, 50);
      Emit("spad.dma_account_" + std::to_string(sizes[i] / 1024) + "k_ms",
           leg[i], "ms", N(samples));
    }
    Emit("spad.scaling_16k_4k_x", leg[2] / leg[1], "x",
         "~16 if quadratic, ~4 if linear");
    spans_->End(root);
    return sink == 0 ? Status::Internal("empty DMA schedule") : Status::OK();
  }

  // arrays + systolic: simulated pulses per host second of RTL engine calls
  // on the workload's device (operands capped at 256 tuples).
  Status Rtl() {
    const uint64_t root = spans_->Begin("layer.rtl", 0);
    db::DeviceConfig device = w_.device;
    device.backend = fastpath::BackendPolicy::kRtl;
    const db::Engine engine(device);
    RelationMap operands = w_.relations;
    for (auto& entry : operands) entry.second = Head(entry.second, 256);
    double pulses = 0;
    double ms = 0;
    for (const OpCall& call : w_.layer_calls) {
      if (call.kind == OpCall::Kind::kSelect ||
          call.kind == OpCall::Kind::kDivide) {
        continue;
      }
      const uint64_t span = spans_->Begin("rtl." + std::string(OpKindName(
                                                        call.kind)), root);
      const auto t0 = Clock::now();
      SYSTOLIC_ASSIGN_OR_RETURN(db::EngineResult ran,
                                RunEngine(engine, call, operands));
      ms += MsSince(t0);
      spans_->End(span);
      pulses += static_cast<double>(ran.stats.cycles);
    }
    spans_->End(root);
    Emit("rtl.pulses_per_s", pulses / (ms / 1000), "pulses/s",
         JsonNumber(pulses) + " pulses in " + JsonNumber(ms) + " ms");
    return Status::OK();
  }

  // server/shared_catalog: CommitGroup from 4 threads on a durable catalog,
  // then durability checkpoints on it.
  Status Catalog() {
    replay_dir_ = c_.work_dir + "/catalog_replay";
    std::error_code ec;
    fs::remove_all(replay_dir_, ec);
    SYSTOLIC_ASSIGN_OR_RETURN(std::unique_ptr<server::SharedCatalog> catalog,
                              server::SharedCatalog::Open(replay_dir_));
    const uint64_t root = spans_->Begin("layer.catalog", 0);
    const rel::Relation& relation = w_.relations.at("c");
    constexpr size_t kThreads = 4;
    constexpr size_t kCommits = 16;
    std::vector<std::vector<double>> samples(kThreads);
    std::vector<Status> statuses(kThreads, Status::OK());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kCommits && statuses[t].ok(); ++i) {
          const std::string name =
              "r" + std::to_string(t) + "_" + std::to_string(i % 4);
          const uint64_t version = catalog->Snapshot()->version;
          const uint64_t span = spans_->Begin("catalog.commit_group", root);
          const auto t0 = Clock::now();
          auto committed = catalog->CommitGroup(version, {{name, &relation}});
          samples[t].push_back(MsSince(t0));
          spans_->End(span);
          if (!committed.ok() && !committed.status().IsAborted()) {
            statuses[t] = committed.status();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : statuses) SYSTOLIC_RETURN_NOT_OK(s);
    std::vector<double> all;
    for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
    const server::GroupCommitStats stats = catalog->stats();
    Emit("catalog.commit_group_ms", Percentile(all, 50), "ms",
         N(all) + " from " + std::to_string(kThreads) + " threads");
    Emit("catalog.commits_per_fsync",
         stats.batches == 0 ? 0.0
                            : static_cast<double>(stats.commits) /
                                  static_cast<double>(stats.batches),
         "count",
         std::to_string(stats.commits) + " commits / " +
             std::to_string(stats.batches) + " batches");
    Emit("catalog.conflict_frac",
         static_cast<double>(stats.conflicts) /
             static_cast<double>(std::max<size_t>(
                 1, stats.commits + stats.conflicts)),
         "ratio", std::to_string(stats.conflicts) + " conflicts");
    SYSTOLIC_ASSIGN_OR_RETURN(
        std::vector<double> checkpoints,
        Time(spans_, root, "durability.checkpoint", 3, 10, 1.0,
             [&] { return catalog->Checkpoint(); }));
    spans_->End(root);
    Emit("durability.checkpoint_ms", Percentile(checkpoints, 50), "ms",
         N(checkpoints));
    return Status::OK();
  }

  // durability: recovery of the directory the run left behind (the served
  // one on durable workloads, the catalog replay's otherwise), and its size
  // relative to the relations it holds.
  Status Durability() {
    const std::string dir =
        c_.durable_dir.empty() ? replay_dir_ : c_.durable_dir;
    const uint64_t root = spans_->Begin("layer.recovery", 0);
    double user_bytes = 0;
    SYSTOLIC_ASSIGN_OR_RETURN(
        std::vector<double> samples,
        Time(spans_, root, "durability.open", 3, 5, 2.0, [&]() -> Status {
          SYSTOLIC_ASSIGN_OR_RETURN(
              std::unique_ptr<server::SharedCatalog> catalog,
              server::SharedCatalog::Open(dir));
          user_bytes = 0;
          for (const auto& [name, entry] : catalog->Snapshot()->relations) {
            user_bytes += spad::TupleBytes(entry.relation->num_tuples(),
                                           entry.relation->arity());
          }
          return Status::OK();
        }));
    spans_->End(root);
    double dir_bytes = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file()) {
        dir_bytes += static_cast<double>(entry.file_size());
      }
    }
    Emit("durability.recovery_s", Percentile(samples, 50) / 1000, "s",
         N(samples));
    Emit("durability.bytes_per_user_byte",
         user_bytes == 0 ? 0 : dir_bytes / user_bytes, "x",
         JsonNumber(dir_bytes) + " directory bytes / " +
             JsonNumber(user_bytes) + " relation bytes");
    return Status::OK();
  }

  const LayerContext& c_;
  const Workload& w_;
  SpanRecorder* spans_;
  std::vector<Metric>* out_;
  std::string replay_dir_;
};

}  // namespace

size_t AccountDmaTiles(size_t tiles) {
  // A 31-row device streams 16-tuple 3-column blocks and drains a 16-bit
  // membership vector per tile.
  const double block = spad::TupleBytes(16, 3);
  const double drain = spad::BitDrainBytes(16);
  spad::DmaQueue queue(/*overlap=*/true);
  for (size_t t = 0; t < tiles; ++t) {
    queue.Mvin(t, block);
    queue.Preload(t, block);
    queue.Compute(t, 64);
    queue.Mvout(t, drain);
  }
  return queue.Schedule();
}

Status RunLayers(const LayerContext& context, std::vector<Metric>* out) {
  Replay replay(context, out);
  return replay.RunAll();
}

}  // namespace perfbench
}  // namespace systolic
