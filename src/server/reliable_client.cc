#include "server/reliable_client.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

namespace systolic {
namespace server {

namespace {

/// Transient verdicts worth a reconnect + resend; everything else is fatal.
bool IsTransient(const Status& status) {
  return status.IsIOError() || status.IsCapacity() || status.IsUnavailable();
}

}  // namespace

Result<Client::Reply> ParseReplyPayload(const std::string& payload) {
  const size_t newline = payload.find('\n');
  const std::string verdict =
      newline == std::string::npos ? payload : payload.substr(0, newline);
  Client::Reply reply;
  reply.output =
      newline == std::string::npos ? "" : payload.substr(newline + 1);
  if (verdict == "OK") {
    reply.ok = true;
  } else if (verdict.rfind("ERR ", 0) == 0) {
    reply.error = verdict.substr(4);
  } else {
    return Status::DataCorruption("malformed reply verdict '" + verdict +
                                  "'");
  }
  return reply;
}

Result<ReliableClient> ReliableClient::Connect(ReliableClientOptions options) {
  return Connect(std::move(options), std::string());
}

Result<ReliableClient> ReliableClient::Connect(ReliableClientOptions options,
                                               std::string token) {
  ReliableClient client;
  if (!options.dial) {
    const uint16_t port = options.port;
    options.dial = [port]() -> Result<std::unique_ptr<Wire>> {
      SYSTOLIC_ASSIGN_OR_RETURN(std::unique_ptr<PosixWire> wire,
                                PosixWire::Dial(port));
      return std::unique_ptr<Wire>(std::move(wire));
    };
  }
  if (!options.sleep_ms) {
    options.sleep_ms = [](uint64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  client.options_ = std::move(options);
  client.token_ = std::move(token);
  Status last = Status::OK();
  for (size_t attempt = 0; attempt < client.options_.max_attempts; ++attempt) {
    if (attempt > 0) client.Backoff(attempt - 1);
    last = client.EnsureConnected();
    if (last.ok()) return client;
    client.DropWire();
    if (!IsTransient(last)) return last;
  }
  return Status::Unavailable("HELLO failed after " +
                             std::to_string(client.options_.max_attempts) +
                             " attempts: " + last.ToString());
}

void ReliableClient::DropWire() { wire_.reset(); }

void ReliableClient::Backoff(uint64_t attempt) {
  ++stats_.backoffs;
  const uint64_t ms = BackoffDelayMs(options_.backoff_seed, attempt,
                                     options_.backoff_base_ms,
                                     options_.backoff_cap_ms);
  if (ms > 0) options_.sleep_ms(ms);
}

Status ReliableClient::EnsureConnected() {
  if (wire_ != nullptr) return Status::OK();
  SYSTOLIC_ASSIGN_OR_RETURN(std::unique_ptr<Wire> wire, options_.dial());
  ++stats_.dials;
  SYSTOLIC_RETURN_NOT_OK(
      WriteFrame(*wire, EncodeHello(token_), options_.io_timeout_ms));
  SYSTOLIC_ASSIGN_OR_RETURN(
      const std::string payload,
      ReadFrame(*wire, nullptr, options_.io_timeout_ms,
                options_.io_timeout_ms));
  if (payload.rfind("RETRY ", 0) == 0) {
    // Admission pressure before a session existed: retryable verbatim.
    ++stats_.retry_bounces;
    return Status::Capacity(payload.substr(6, payload.find('\n') - 6));
  }
  SYSTOLIC_ASSIGN_OR_RETURN(const Client::Reply reply,
                            ParseReplyPayload(payload));
  if (!reply.ok) {
    if (reply.error.find("unknown session token") != std::string::npos) {
      return Status::NotFound("server refused resume: " + reply.error);
    }
    if (reply.error.rfind("unavailable", 0) == 0) {
      return Status::Unavailable("server refused HELLO: " + reply.error);
    }
    return Status::Internal("server refused HELLO: " + reply.error);
  }
  // "token <token> last <id>"
  std::istringstream in(reply.output);
  std::string tag;
  std::string token;
  uint64_t last_id = 0;
  in >> tag >> token;
  if (tag != "token" || token.empty()) {
    return Status::DataCorruption("malformed HELLO ack '" + reply.output +
                                  "'");
  }
  in >> tag >> last_id;
  token_ = token;
  server_last_id_ = last_id;
  wire_ = std::move(wire);
  return Status::OK();
}

Result<Client::Reply> ReliableClient::Execute(const std::string& line) {
  const uint64_t id = next_id_++;
  const std::string frame = EncodeRequest(id, line);
  Status last = Status::OK();
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      Backoff(attempt - 1);
    }
    last = EnsureConnected();
    if (!last.ok()) {
      DropWire();
      if (!IsTransient(last)) return last;
      continue;
    }
    const Status sent = WriteFrame(*wire_, frame, options_.io_timeout_ms);
    if (!sent.ok()) {
      last = sent;
      DropWire();
      if (!IsTransient(sent)) return sent;
      continue;
    }
    Result<std::string> payload = ReadFrame(
        *wire_, nullptr, options_.io_timeout_ms, options_.io_timeout_ms);
    if (!payload.ok()) {
      last = payload.status();
      DropWire();
      // DataCorruption = an unframeable stream; the protocol offers no way
      // to resynchronise, so surface it rather than guess.
      if (!IsTransient(last)) return last;
      continue;
    }
    if (payload->rfind("RETRY ", 0) == 0) {
      // Pre-execution bounce: the id was NOT consumed. Same id, same
      // connection, after a backoff.
      ++stats_.retry_bounces;
      last = Status::Capacity(payload->substr(6, payload->find('\n') - 6));
      continue;
    }
    return ParseReplyPayload(*payload);
  }
  return Status::Unavailable("request " + std::to_string(id) +
                             " failed after " +
                             std::to_string(options_.max_attempts) +
                             " attempts: " + last.ToString());
}

Status ReliableClient::Control(const std::string& line) {
  SYSTOLIC_RETURN_NOT_OK(EnsureConnected());
  const Status sent = WriteFrame(*wire_, line, options_.io_timeout_ms);
  if (!sent.ok()) {
    DropWire();
    return sent;
  }
  // Best-effort ack: for DRAIN/SHUTDOWN the server may die before (or while)
  // replying, which is exactly what was asked for.
  Result<std::string> payload = ReadFrame(
      *wire_, nullptr, options_.io_timeout_ms, options_.io_timeout_ms);
  if (!payload.ok()) {
    DropWire();
    return Status::OK();
  }
  return Status::OK();
}

Status ReliableClient::Drain() { return Control("DRAIN"); }

Status ReliableClient::Shutdown() { return Control("SHUTDOWN"); }

void ReliableClient::Close() {
  if (wire_ != nullptr) {
    (void)Control("BYE");
  }
  DropWire();
}

}  // namespace server
}  // namespace systolic
