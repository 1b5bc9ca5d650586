// The end-to-end benchmark. One binary, two roles:
//
//   perfbench serve --parent PID --data DIR --rows R --chips C
//                   [--durable DIR] [--checkpoint-every N] [--boot ID]
//     Started by the load generator (PID), never by hand. Hosts
//     server::Server: seeds the relations saved in DIR, listens on an
//     ephemeral loopback port, prints "PORT <n>", serves until DRAIN, then
//     prints one "STATS {...}" line.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--work DIR]
//     The load generator. Generates W's relations from the seed, starts the
//     server as a child process, drives W's closed loop over protocol-v2
//     loopback connections (server::ReliableClient), checks every reply,
//     and prints the metrics; the last stdout line is one JSON object. With
//     --trace 1 it also replays the same inputs into each layer's public
//     entry points and prints the per-layer metrics instead.
//
// perfbench/README.md lists every metric, workload and layer.

#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "relational/catalog.h"
#include "relational/storage.h"
#include "server/reliable_client.h"
#include "server/server.h"
#include "stats.h"
#include "workload.h"

extern char** environ;

namespace systolic {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetupReps = 5;
// Reply deadline per poll: generous, heavy RTL commands take seconds.
constexpr int kClientIoTimeoutMs = 60'000;
// A run that has not finished by then kills its server and exits non-zero.
constexpr unsigned kWatchdogSeconds = 170;

// The live server child, for the watchdog's signal handler.
std::atomic<pid_t> g_server_pid{-1};

void OnWatchdog(int) {
  const pid_t pid = g_server_pid.load();
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  static const char kMessage[] = "perfbench: watchdog expired\n";
  (void)!::write(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
  ::_exit(3);
}

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

bool ParseUint(const std::string& text, uint64_t* value) {
  if (text.empty()) return false;
  char* end = nullptr;
  *value = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

// ---------------------------------------------------------------------------
// Server host.

int Serve(const std::map<std::string, std::string>& flags) {
  // Pin glibc's mmap threshold at the top of its adaptive range (32 MiB),
  // where adaptation ends up once large buffers have been freed. Left
  // adaptive, the point at which it rises depends on allocation order
  // across threads, so peak RSS jumped by a few MiB between equal runs.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  uint64_t rows = 0, chips = 1, checkpoint_every = 0, boot = 1, parent = 0;
  // Die with the load generator, whatever way it ends.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (!flags.count("data") || !flags.count("parent") ||
      !ParseUint(flags.at("parent"), &parent) ||
      static_cast<uint64_t>(::getppid()) != parent ||
      !ParseUint(flags.count("rows") ? flags.at("rows") : "0", &rows) ||
      !ParseUint(flags.count("chips") ? flags.at("chips") : "1", &chips) ||
      !ParseUint(flags.count("checkpoint-every")
                     ? flags.at("checkpoint-every") : "0",
                 &checkpoint_every) ||
      !ParseUint(flags.count("boot") ? flags.at("boot") : "1", &boot)) {
    std::fprintf(stderr, "serve: bad arguments\n");
    return 2;
  }
  server::ServerConfig config;
  config.machine = MachineFor(db::DeviceConfig{});
  config.machine.device.rows = rows;
  config.num_chips = chips;
  config.boot_id = boot;
  if (flags.count("durable")) config.durable_dir = flags.at("durable");
  auto created = server::Server::Create(std::move(config));
  if (!created.ok()) {
    std::fprintf(stderr, "serve: %s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<server::Server> srv = std::move(created).ValueOrDie();
  auto data = rel::LoadCatalog(flags.at("data"));
  if (!data.ok()) {
    std::fprintf(stderr, "serve: %s\n", data.status().ToString().c_str());
    return 1;
  }
  for (const std::string& name : data.ValueOrDie()->RelationNames()) {
    const rel::Relation* relation =
        data.ValueOrDie()->GetRelation(name).ValueOrDie();
    const Status seeded = srv->catalog().Seed(name, *relation);
    if (!seeded.ok()) {
      std::fprintf(stderr, "serve: %s\n", seeded.ToString().c_str());
      return 1;
    }
  }
  const Status listening = srv->Listen(0);
  if (!listening.ok()) {
    std::fprintf(stderr, "serve: %s\n", listening.ToString().c_str());
    return 1;
  }
  std::printf("PORT %u\n", static_cast<unsigned>(srv->port()));
  std::fflush(stdout);

  // Samples the admission queue and, on durable workloads, checkpoints the
  // shared catalog every `checkpoint_every` group commits (CHECKPOINT over
  // the wire is a per-session verb that server sessions do not route to the
  // shared catalog).
  std::atomic<bool> stop{false};
  double depth_sum = 0;
  size_t depth_samples = 0, checkpoints = 0, checkpoint_failures = 0;
  std::thread sampler([&] {
    size_t last_commits = 0;
    while (!stop.load()) {
      depth_sum += static_cast<double>(srv->scheduler().queue_depth());
      ++depth_samples;
      if (checkpoint_every > 0 && srv->catalog().durable()) {
        const size_t commits = srv->catalog().stats().commits;
        if (commits >= last_commits + checkpoint_every) {
          last_commits = commits;
          if (srv->catalog().Checkpoint().ok()) {
            ++checkpoints;
          } else {
            ++checkpoint_failures;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const Status served = srv->Serve();
  stop.store(true);
  sampler.join();
  const server::ServerStats stats = srv->stats();
  std::printf(
      "STATS {\"admitted\": %zu, \"rejected\": %zu, \"commits\": %zu, "
      "\"batches\": %zu, \"conflicts\": %zu, \"queue_depth_mean\": %s, "
      "\"checkpoints\": %zu, \"checkpoint_failures\": %zu}\n",
      stats.scheduler.admitted, stats.scheduler.rejected,
      stats.group_commit.commits, stats.group_commit.batches,
      stats.group_commit.conflicts,
      JsonNumber(depth_samples == 0
                     ? 0.0
                     : depth_sum / static_cast<double>(depth_samples))
          .c_str(),
      checkpoints, checkpoint_failures);
  std::fflush(stdout);
  if (!served.ok()) {
    std::fprintf(stderr, "serve: %s\n", served.ToString().c_str());
    return 1;
  }
  return checkpoint_failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Server child process, as seen from the load generator.

struct ServerStatsLine {
  double admitted = 0, rejected = 0, commits = 0, batches = 0, conflicts = 0;
  double queue_depth_mean = 0, checkpoints = 0;
};

// Pulls `"key": <number>` out of the flat STATS object.
double StatField(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\": ");
  if (at == std::string::npos) return 0;
  return std::strtod(line.c_str() + at + key.size() + 4, nullptr);
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Kill(); }

  Status Start(const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      return Status::IOError("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<std::string> argv_store = {
        "/proc/self/exe", "serve", "--parent", std::to_string(::getpid())};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_store) argv.push_back(arg.data());
    argv.push_back(nullptr);
    char exe[4096];
    const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) return Status::IOError("cannot resolve /proc/self/exe");
    exe[len] = '\0';
    const int spawned =
        posix_spawn(&pid_, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (spawned != 0) {
      pid_ = -1;
      return Status::IOError("posix_spawn failed");
    }
    g_server_pid.store(pid_);
    std::string line;
    if (!ReadLine(30'000, &line) || line.rfind("PORT ", 0) != 0) {
      Kill();
      return Status::IOError("server did not report its port");
    }
    port_ = static_cast<uint16_t>(std::strtoul(line.c_str() + 5, nullptr, 10));
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  /// Peak resident set of the server (VmHWM), in MiB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// Graceful stop (DRAIN), then the child's STATS line and exit status.
  Status Stop(ServerStatsLine* stats) {
    if (pid_ <= 0) return Status::OK();
    server::ReliableClientOptions options;
    options.port = port_;
    auto client = server::ReliableClient::Connect(options);
    if (client.ok()) (void)client.ValueOrDie().Drain();
    std::string line;
    bool have_stats = false;
    while (ReadLine(30'000, &line)) {
      if (line.rfind("STATS ", 0) == 0) {
        have_stats = true;
        stats->admitted = StatField(line, "admitted");
        stats->rejected = StatField(line, "rejected");
        stats->commits = StatField(line, "commits");
        stats->batches = StatField(line, "batches");
        stats->conflicts = StatField(line, "conflicts");
        stats->queue_depth_mean = StatField(line, "queue_depth_mean");
        stats->checkpoints = StatField(line, "checkpoints");
      }
    }
    const int status = Wait(30'000);
    if (!have_stats || status != 0) {
      return Status::Internal("server exited with status " +
                              std::to_string(status));
    }
    return Status::OK();
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Wait(-1);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  // Reads one '\n'-terminated line from the child's stdout; false on EOF or
  // timeout.
  bool ReadLine(int timeout_ms, std::string* line) {
    line->clear();
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now()).count();
      if (left <= 0 || out_fd_ < 0) return false;
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Reaps the child; SIGKILL after `timeout_ms` (< 0 = wait forever).
  // Returns the exit code, or -1 when killed by a signal.
  int Wait(int timeout_ms) {
    if (pid_ <= 0) return -1;
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const pid_t done = ::waitpid(pid_, &status, timeout_ms < 0 ? 0 : WNOHANG);
      if (done == pid_) break;
      if (done < 0) {
        pid_ = -1;
        g_server_pid.store(-1);
        return -1;
      }
      if (Clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        timeout_ms = -1;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    g_server_pid.store(-1);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Clients and the output check.

// Checks one reply against its expectation; empty = pass.
std::string Check(const Request& request,
                  const Result<server::Client::Reply>& reply,
                  size_t* pulses) {
  if (!reply.ok()) return "transport: " + reply.status().ToString();
  const server::Client::Reply& r = reply.ValueOrDie();
  if (!r.ok) return "ERR " + r.error;
  const Expect& e = request.expect;
  switch (e.kind) {
    case Expect::Kind::kOk:
      if (r.output.find(e.marker) == std::string::npos) {
        return "missing '" + e.marker + "'";
      }
      return "";
    case Expect::Kind::kStep: {
      StepCounts got;
      if (!ParseStepLine(r.output, &got)) return "no summary line";
      *pulses += got.pulses;
      if (got.tuples != e.tuples || got.passes != e.passes ||
          got.pulses != e.pulses) {
        return "got " + std::to_string(got.tuples) + " tuples/" +
               std::to_string(got.passes) + " passes/" +
               std::to_string(got.pulses) + " pulses, want " +
               std::to_string(e.tuples) + "/" + std::to_string(e.passes) +
               "/" + std::to_string(e.pulses);
      }
      return "";
    }
    case Expect::Kind::kLoaded: {
      size_t tuples = 0;
      if (!ParseLoadedLine(r.output, &tuples)) return "no loaded line";
      if (tuples != e.tuples) {
        return "loaded " + std::to_string(tuples) + " tuples, want " +
               std::to_string(e.tuples);
      }
      return "";
    }
    case Expect::Kind::kCommitted: {
      size_t got = 0;
      if (!ParseMeasuredPulses(r.output, &got)) return "no measured pulses";
      *pulses += got;
      if (got != e.pulses) {
        return "measured " + std::to_string(got) + " pulses, want " +
               std::to_string(e.pulses);
      }
      return "";
    }
  }
  return "bad expectation";
}

struct LoopResult {
  std::vector<double> latencies_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t retries = 0;
  double elapsed_s = 0;
  /// Pulses parsed per (client, cycle position) the run reached.
  std::vector<double> pulses_by_op;
  /// Latencies per (client, cycle position), for same-operation ratios.
  std::map<std::pair<size_t, size_t>, std::vector<double>> by_op;
  std::vector<std::string> errors;
};

class Connection {
 public:
  Connection(const ClientPlan* plan, size_t index, size_t print_every)
      : plan_(plan), index_(index), print_every_(print_every) {}

  Status Open(uint16_t port) {
    server::ReliableClientOptions options;
    options.port = port;
    options.io_timeout_ms = kClientIoTimeoutMs;
    options.backoff_seed = index_ + 1;
    SYSTOLIC_ASSIGN_OR_RETURN(client_,
                              server::ReliableClient::Connect(options));
    for (const Request& request : plan_->setup) {
      size_t pulses = 0;
      const std::string error =
          Check(request, client_.Execute(request.line), &pulses);
      if (!error.empty()) {
        return Status::Internal("set-up '" + request.line + "': " + error);
      }
    }
    return Status::OK();
  }

  /// Runs the plan's cycle until `deadline`, finishing the cycle in
  /// progress so every operation of the mix runs equally often (latency
  /// percentiles over a mix cut mid-cycle jump between operation types);
  /// spans go to `spans` if set.
  void Loop(Clock::time_point deadline, SpanRecorder* spans,
            LoopResult* out) {
    std::vector<std::optional<double>> pulses(plan_->cycle.size());
    const size_t retries_before = client_.stats().retries;
    const auto start = Clock::now();
    while (Clock::now() < deadline || next_ % plan_->cycle.size() != 0) {
      const size_t position = next_ % plan_->cycle.size();
      const Operation& op = plan_->cycle[position];
      ++next_;
      ++out->attempted;
      std::string error;
      size_t op_pulses = 0;
      const uint64_t root =
          spans ? spans->Begin("op." + op.name, 0, client_.next_id()) : 0;
      const auto t0 = Clock::now();
      for (const Request& request : op.timed) {
        const uint64_t span =
            spans ? spans->Begin("request", root, client_.next_id()) : 0;
        error = Check(request, client_.Execute(request.line), &op_pulses);
        if (spans) spans->End(span);
        if (!error.empty()) {
          error = request.line + ": " + error;
          break;
        }
      }
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (spans) spans->End(root);
      if (error.empty()) {
        out->latencies_ms.push_back(ms);
        out->by_op[{index_, position}].push_back(ms);
        pulses[position] = static_cast<double>(op_pulses);
      }
      if (error.empty() && !op.print_buffer.empty() &&
          ++printable_ % print_every_ == 0) {
        auto reply = client_.Execute("PRINT " + op.print_buffer);
        if (!reply.ok() || !reply.ValueOrDie().ok) {
          error = "PRINT " + op.print_buffer + " failed";
        } else if (reply.ValueOrDie().output != op.expected_print) {
          error = "PRINT " + op.print_buffer + " differs from the expected " +
                  "relation";
        }
      }
      for (const Request& request : op.after) {
        size_t ignored = 0;
        const std::string after_error =
            Check(request, client_.Execute(request.line), &ignored);
        if (error.empty() && !after_error.empty()) {
          error = request.line + ": " + after_error;
        }
      }
      if (!error.empty()) {
        ++out->failed;
        if (out->errors.size() < 5) out->errors.push_back(error);
      }
    }
    out->elapsed_s = SecondsSince(start);
    out->retries += client_.stats().retries - retries_before;
    for (const auto& p : pulses) {
      if (p) out->pulses_by_op.push_back(*p);
    }
  }

  /// Runs the cycle once, checked but untimed (the durable priming pass).
  Status RunCycleOnce() {
    for (const Operation& op : plan_->cycle) {
      for (const auto* list : {&op.timed, &op.after}) {
        for (const Request& request : *list) {
          size_t ignored = 0;
          const std::string error =
              Check(request, client_.Execute(request.line), &ignored);
          if (!error.empty()) {
            return Status::Internal("priming '" + request.line + "': " + error);
          }
        }
      }
    }
    return Status::OK();
  }

  void Close() { client_.Close(); }

 private:
  const ClientPlan* plan_;
  size_t index_;
  size_t print_every_;
  server::ReliableClient client_;
  size_t next_ = 0;
  size_t printable_ = 0;
};

// Opens one connection per client plan in parallel (connect + set-up).
Status OpenAll(std::vector<std::unique_ptr<Connection>>* connections,
               const Workload& workload, uint16_t port) {
  connections->clear();
  for (size_t k = 0; k < workload.clients.size(); ++k) {
    connections->push_back(std::make_unique<Connection>(
        &workload.clients[k], k, workload.shape.print_every));
  }
  std::vector<Status> statuses(connections->size(), Status::OK());
  std::vector<std::thread> threads;
  for (size_t k = 0; k < connections->size(); ++k) {
    threads.emplace_back(
        [&, k] { statuses[k] = (*connections)[k]->Open(port); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : statuses) SYSTOLIC_RETURN_NOT_OK(s);
  return Status::OK();
}

LoopResult RunLoop(std::vector<std::unique_ptr<Connection>>& connections,
                   double seconds, SpanRecorder* spans) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<LoopResult> parts(connections.size());
  std::vector<std::thread> threads;
  for (size_t k = 0; k < connections.size(); ++k) {
    threads.emplace_back(
        [&, k] { connections[k]->Loop(deadline, spans, &parts[k]); });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  for (LoopResult& part : parts) {
    total.latencies_ms.insert(total.latencies_ms.end(),
                              part.latencies_ms.begin(),
                              part.latencies_ms.end());
    total.attempted += part.attempted;
    total.failed += part.failed;
    total.retries += part.retries;
    total.elapsed_s = std::max(total.elapsed_s, part.elapsed_s);
    total.pulses_by_op.insert(total.pulses_by_op.end(),
                              part.pulses_by_op.begin(),
                              part.pulses_by_op.end());
    total.by_op.insert(part.by_op.begin(), part.by_op.end());
    for (std::string& e : part.errors) total.errors.push_back(std::move(e));
  }
  return total;
}

void CloseAll(std::vector<std::unique_ptr<Connection>>* connections) {
  for (auto& connection : *connections) connection->Close();
  connections->clear();
}

// ---------------------------------------------------------------------------
// One run.

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work;
};

Status SaveRelations(const RelationMap& relations, const std::string& dir) {
  rel::Catalog catalog;
  for (const auto& [name, relation] : relations) {
    catalog.PutRelation(name, relation);
  }
  return rel::SaveCatalog(catalog, dir);
}

class Run {
 public:
  explicit Run(Options options) : options_(std::move(options)) {}
  ~Run() {
    CloseAll(&connections_);
    server_.reset();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Status Execute(std::vector<Metric>* metrics, size_t* attempted,
                 size_t* failed) {
    SYSTOLIC_ASSIGN_OR_RETURN(const WorkloadShape shape,
                              ShapeOf(options_.workload));
    dir_ = (fs::path(options_.work) /
            (shape.name + "-" + std::to_string(options_.seed) + "-" +
             std::to_string(::getpid())))
               .string();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_, ec);
    if (ec) return Status::IOError("cannot create " + dir_);
    SYSTOLIC_ASSIGN_OR_RETURN(RelationMap relations,
                              GenerateRelations(shape, options_.seed));
    SYSTOLIC_ASSIGN_OR_RETURN(workload_,
                              BuildWorkload(shape, std::move(relations)));
    if (shape.durable) SYSTOLIC_RETURN_NOT_OK(Prime());

    // Set-up, several times; the last one stays up for the measurement.
    const size_t reps = options_.trace ? 1 : kSetupReps;
    std::vector<double> setups;
    for (size_t r = 0; r < reps; ++r) {
      if (r > 0) SYSTOLIC_RETURN_NOT_OK(StopServer(nullptr));
      const auto start = Clock::now();
      SYSTOLIC_ASSIGN_OR_RETURN(RelationMap generated,
                                GenerateRelations(shape, options_.seed));
      SYSTOLIC_RETURN_NOT_OK(StartServer(generated, r + 2));
      SYSTOLIC_RETURN_NOT_OK(OpenAll(&connections_, workload_,
                                     server_->port()));
      setups.push_back(SecondsSince(start));
    }

    if (!options_.trace) {
      const LoopResult loop = RunLoop(connections_, options_.seconds, nullptr);
      const double rss = server_->PeakRssMb();
      ServerStatsLine stats;
      SYSTOLIC_RETURN_NOT_OK(StopServer(&stats));
      Report(loop);
      std::printf("# server: %.0f group commits in %.0f batches, %.0f "
                  "conflicts, %.0f checkpoints\n",
                  stats.commits, stats.batches, stats.conflicts,
                  stats.checkpoints);
      *attempted = loop.attempted;
      *failed = loop.failed;
      const double failed_frac =
          loop.attempted == 0 ? 0 : static_cast<double>(loop.failed) /
                                        static_cast<double>(loop.attempted);
      const size_t n = loop.latencies_ms.size();
      const std::string samples = "n=" + std::to_string(n);
      metrics->push_back({"setup_s", Median(setups), "s",
                          "n=" + std::to_string(setups.size())});
      metrics->push_back({"latency_p50_ms",
                          Percentile(loop.latencies_ms, 50), "ms", samples});
      metrics->push_back(
          {"latency_p90_ms", Percentile(loop.latencies_ms, 90), "ms",
           samples + ", beyond=" + std::to_string(SamplesBeyond(n, 90)) +
               ", rule=p" + JsonNumber(TailPercentileFor(n))});
      metrics->push_back({"throughput_rps",
                          static_cast<double>(loop.attempted - loop.failed) /
                              loop.elapsed_s,
                          "ops/s", "n=" + std::to_string(loop.attempted)});
      metrics->push_back({"failed_frac", failed_frac, "ratio",
                          "n=" + std::to_string(loop.attempted)});
      metrics->push_back({"pulses_per_op", Mean(loop.pulses_by_op), "pulses",
                          "n=" + std::to_string(loop.pulses_by_op.size())});
      metrics->push_back({"peak_rss_mb", rss, "MiB", "n=1"});
      return Status::OK();
    }

    // Traced run: half the time untraced, half with client spans, then the
    // layer replays.
    const LoopResult plain =
        RunLoop(connections_, options_.seconds / 2, nullptr);
    const LoopResult traced =
        RunLoop(connections_, options_.seconds / 2, &spans_);
    ServerStatsLine stats;
    SYSTOLIC_RETURN_NOT_OK(StopServer(&stats));
    Report(plain);
    Report(traced);
    *attempted = plain.attempted + traced.attempted;
    *failed = plain.failed + traced.failed;
    // The halves reach different points of an operation cycle, so compare
    // each operation with itself: the median of per-operation p50 ratios.
    std::vector<double> ratios;
    for (const auto& [op, samples] : traced.by_op) {
      const auto untraced = plain.by_op.find(op);
      if (untraced == plain.by_op.end()) continue;
      ratios.push_back(Percentile(samples, 50) /
                       Percentile(untraced->second, 50));
    }
    metrics->push_back({"trace.overhead_x", Median(ratios), "x",
                        "median over " + std::to_string(ratios.size()) +
                            " operations of traced p50 / untraced p50"});
    metrics->push_back({"client.retries_per_op",
                        static_cast<double>(plain.retries + traced.retries) /
                            static_cast<double>(*attempted),
                        "count", "n=" + std::to_string(*attempted)});
    metrics->push_back({"scheduler.queue_depth_mean", stats.queue_depth_mean,
                        "count", "sampled every 1 ms in the server"});
    metrics->push_back(
        {"scheduler.rejected_frac",
         stats.rejected / std::max(1.0, stats.admitted + stats.rejected),
         "ratio", "n=" + JsonNumber(stats.admitted + stats.rejected)});
    LayerContext context;
    context.workload = &workload_;
    context.spans = &spans_;
    context.work_dir = dir_;
    context.durable_dir = durable_dir_;
    SYSTOLIC_RETURN_NOT_OK(RunLayers(context, metrics));
    const std::string span_file =
        (fs::path(options_.work) / (workload_.shape.name + "-seed" +
                                    std::to_string(options_.seed) +
                                    "-spans.jsonl"))
            .string();
    if (!spans_.WriteJsonl(span_file)) {
      return Status::IOError("cannot write " + span_file);
    }
    std::printf("# spans: %zu written to %s\n", spans_.spans().size(),
                span_file.c_str());
    return Status::OK();
  }

 private:
  static double Mean(const std::vector<double>& values) {
    double sum = 0;
    for (const double v : values) sum += v;
    return values.empty() ? 0 : sum / static_cast<double>(values.size());
  }

  // Failures, then the latency of each operation of the mix.
  void Report(const LoopResult& loop) {
    for (const std::string& error : loop.errors) {
      std::printf("# FAILED: %s\n", error.c_str());
    }
    std::map<std::string, std::vector<double>> by_name;
    for (const auto& [key, samples] : loop.by_op) {
      const Operation& op = workload_.clients[key.first].cycle[key.second];
      std::vector<double>& all =
          by_name[workload_.clients[key.first].role + " " + op.name];
      all.insert(all.end(), samples.begin(), samples.end());
    }
    for (const auto& [name, samples] : by_name) {
      std::printf("# op p50 %10.3f ms  n=%-4zu %s\n", Percentile(samples, 50),
                  samples.size(), name.c_str());
    }
  }

  Status StartServer(const RelationMap& relations, uint64_t boot) {
    const std::string data = dir_ + "/data";
    std::error_code ec;
    fs::remove_all(data, ec);
    SYSTOLIC_RETURN_NOT_OK(SaveRelations(relations, data));
    std::vector<std::string> args = {
        "--data", data,
        "--rows", std::to_string(workload_.shape.rows),
        "--chips", std::to_string(workload_.shape.chips),
        "--boot", std::to_string(boot)};
    if (workload_.shape.durable) {
      durable_dir_ = dir_ + "/durable";
      args.insert(args.end(),
                  {"--durable", durable_dir_, "--checkpoint-every",
                   std::to_string(workload_.shape.checkpoint_every)});
    }
    server_ = std::make_unique<ServerProcess>();
    return server_->Start(args);
  }

  Status StopServer(ServerStatsLine* stats) {
    CloseAll(&connections_);
    ServerStatsLine ignored;
    const Status stopped = server_->Stop(stats ? stats : &ignored);
    server_.reset();
    return stopped;
  }

  // Durable workloads restart over an existing directory: one untimed pass
  // in which every writer publishes its slots, so each set-up recovers them
  // and readers have something to LOAD from the first request on.
  Status Prime() {
    SYSTOLIC_RETURN_NOT_OK(StartServer(workload_.relations, 1));
    SYSTOLIC_RETURN_NOT_OK(OpenAll(&connections_, workload_, server_->port()));
    for (size_t k = 0; k < connections_.size(); ++k) {
      if (workload_.clients[k].role == "writer") {
        SYSTOLIC_RETURN_NOT_OK(connections_[k]->RunCycleOnce());
      }
    }
    return StopServer(nullptr);
  }

  Options options_;
  std::string dir_;
  std::string durable_dir_;
  Workload workload_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<std::unique_ptr<Connection>> connections_;
  SpanRecorder spans_;
};

int Main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return Serve(ParseFlags(argc, argv, 2));
  }
  const auto flags = ParseFlags(argc, argv, 1);
  Options options;
  uint64_t seconds = 0, trace = 0;
  if (!flags.count("workload") || !flags.count("seed") ||
      !flags.count("seconds") || !ParseUint(flags.at("seed"), &options.seed) ||
      !ParseUint(flags.at("seconds"), &seconds) || seconds == 0 ||
      !ParseUint(flags.count("trace") ? flags.at("trace") : "0", &trace) ||
      trace > 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace 0|1 [--work <dir>]\n");
    return 2;
  }
  options.workload = flags.at("workload");
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.work = flags.count("work") ? flags.at("work") : ".perfbench_work";
  // A dead server connection must surface as an error, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGALRM, OnWatchdog);
  ::alarm(kWatchdogSeconds);

  std::vector<Metric> metrics;
  size_t attempted = 0, failed = 0;
  Status status = Status::OK();
  {
    Run run(options);
    status = run.Execute(&metrics, &attempted, &failed);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("# %s seed=%llu seconds=%llu trace=%llu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace));
  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const bool correct = failed == 0 && attempted > 0;
  std::string json =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    // failed_frac is printed above; in the JSON it is carried by the
    // attempted/failed counts (a metric that is 0 on a correct run has no
    // relative spread).
    if (m.name == "failed_frac") continue;
    json += std::string(first ? "" : ", ") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace systolic

int main(int argc, char** argv) {
  return systolic::perfbench::Main(argc, argv);
}
