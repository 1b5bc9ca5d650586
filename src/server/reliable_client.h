#ifndef SYSTOLIC_SERVER_RELIABLE_CLIENT_H_
#define SYSTOLIC_SERVER_RELIABLE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "server/protocol.h"

namespace systolic {
namespace server {

/// Only a scope for Reply, which callers still spell server::Client::Reply.
struct Client {
  /// One command's round trip.
  struct Reply {
    bool ok = false;
    /// The status text after "ERR " (empty when ok).
    std::string error;
    /// Everything the command printed on the server.
    std::string output;
  };
};

/// Splits a reply payload into Client::Reply; DataCorruption on a malformed
/// verdict line.
Result<Client::Reply> ParseReplyPayload(const std::string& payload);

/// Knobs for ReliableClient. The `dial` and `sleep_ms` hooks exist so tests
/// can splice a ChaosWire under the client and collapse backoff waits to
/// nothing; production use leaves them null and gets a real loopback dial and
/// a real sleep.
struct ReliableClientOptions {
  /// Loopback port (ignored when `dial` is set).
  uint16_t port = 0;
  /// Per-poll send/recv budget; <= 0 = block indefinitely.
  int io_timeout_ms = 10'000;
  /// Total tries per request (first attempt included).
  size_t max_attempts = 10;
  uint64_t backoff_base_ms = 1;
  uint64_t backoff_cap_ms = 64;
  /// Decorrelates concurrent clients' retry storms (see BackoffDelayMs).
  uint64_t backoff_seed = 0;
  /// Produces a fresh connected Wire; defaults to PosixWire::Dial(port).
  std::function<Result<std::unique_ptr<Wire>>()> dial;
  /// Backoff sleep; defaults to std::this_thread::sleep_for.
  std::function<void(uint64_t)> sleep_ms;
};

/// The S26 protocol-v2 client: every command carries a per-session
/// monotonically increasing request id, and every transient failure — torn
/// connection, wire deadline, server admission pressure (RETRY verdict or
/// Capacity), Unavailable — is retried with capped exponential backoff by
/// reconnecting, resuming the session by token, and resending the SAME id.
/// The server's reply cache / WAL-recovered acks make the retry exactly-once:
/// a command's effects are applied at most once no matter how many times its
/// frame hits the wire. DataCorruption (a malformed reply) and protocol
/// errors are fatal, never retried.
class ReliableClient {
 public:
  struct Stats {
    size_t dials = 0;     ///< Wire connections established (incl. the first).
    size_t retries = 0;   ///< Request attempts beyond each first attempt.
    size_t backoffs = 0;  ///< Backoff delays taken.
    size_t retry_bounces = 0;  ///< RETRY verdicts (admission pressure).
  };

  ReliableClient() = default;
  ReliableClient(ReliableClient&&) noexcept = default;
  ReliableClient& operator=(ReliableClient&&) noexcept = default;
  ReliableClient(const ReliableClient&) = delete;
  ReliableClient& operator=(const ReliableClient&) = delete;

  /// Dials and performs the HELLO handshake (retrying transient failures);
  /// on success token() names the server-side session. Set
  /// `options.resume_token` via the second overload to re-attach.
  static Result<ReliableClient> Connect(ReliableClientOptions options);
  /// Like Connect, but resumes the session named by `token` (after a process
  /// restart or across a server crash with a durable directory).
  static Result<ReliableClient> Connect(ReliableClientOptions options,
                                        std::string token);

  /// Executes `line` exactly once on the server, retrying transparently.
  /// A returned Reply is the server's verdict for THIS request id (possibly
  /// replayed from its reply cache after a retry).
  Result<Client::Reply> Execute(const std::string& line);

  /// Graceful server stop: stop accepting, finish in-flight, flush group
  /// commit, close. OK once the DRAIN frame is on the wire (the ack may be
  /// lost to the shutdown itself).
  Status Drain();

  /// Hard server stop.
  Status Shutdown();

  /// Polite goodbye (BYE) and drop the connection; the server frees the
  /// session immediately instead of waiting for the idle reaper.
  void Close();

  /// The server-issued resume token (empty before Connect succeeds).
  const std::string& token() const { return token_; }

  /// The server's last-consumed request id reported at the last HELLO.
  uint64_t server_last_id() const { return server_last_id_; }

  /// The next id Execute will use.
  uint64_t next_id() const { return next_id_; }
  /// Overrides the id sequence (crash-recovery flows: continue above a
  /// recovered high-water mark).
  void set_next_id(uint64_t id) { next_id_ = id; }

  const Stats& stats() const { return stats_; }

 private:
  /// Dial + HELLO handshake if not connected. Transient failures surface as
  /// IOError/Capacity/Unavailable (caller retries); an unknown-token refusal
  /// is NotFound (fatal: the session is gone, start a new one).
  Status EnsureConnected();
  void DropWire();
  void Backoff(uint64_t attempt);
  /// Fire one control frame (BYE/DRAIN/SHUTDOWN), tolerating a lost ack.
  Status Control(const std::string& line);

  ReliableClientOptions options_;
  std::unique_ptr<Wire> wire_;
  std::string token_;
  uint64_t server_last_id_ = 0;
  uint64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace server
}  // namespace systolic

#endif  // SYSTOLIC_SERVER_RELIABLE_CLIENT_H_
