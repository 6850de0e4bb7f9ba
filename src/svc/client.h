// Client side of the analysis service: a connected session that frames
// requests and parses responses. One Client is one socket — calls on it
// are sequential (the protocol is strict request/response), but any number
// of Clients may talk to the same daemon concurrently.
//
// Transport failures are classified (TransportError) so callers can tell a
// daemon that is not there (kConnect) from one that died mid-answer
// (kTruncated) from a clean close (kClosed): the first two are retryable,
// a truncated frame additionally proves the peer crashed while sending.
// analyze_with_retry() builds the standard retry loop on top: exponential
// backoff with deterministic jitter, re-connecting each attempt.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "svc/request.h"
#include "svc/wire.h"

namespace quanta::svc {

/// Why the last Client call failed at the transport layer.
enum class TransportError {
  kNone,       ///< no transport failure (success, or a parse error)
  kConnect,    ///< could not connect (daemon absent / not yet listening)
  kSend,       ///< request write failed
  kClosed,     ///< clean EOF before any response bytes
  kTruncated,  ///< EOF mid-frame: the daemon died while sending
  kRecv,       ///< socket error / timeout while reading the response
};

/// Short stable label ("connect", "truncated", ...) for messages and tests.
const char* transport_error_name(TransportError e);

class Client {
 public:
  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects over a Unix-domain socket / loopback TCP. False (with the
  /// reason in *error) on failure; the client is then unconnected.
  bool connect_unix(const std::string& path, std::string* error);
  bool connect_tcp(const std::string& host, int port, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Caps connect() and each socket read/write at `ms` milliseconds
  /// (0 = block forever, the default). Applies to later connects and, on a
  /// connected client, at once to the open socket; should the socket refuse
  /// it, the client is closed with last_transport_error() kConnect.
  void set_timeout_ms(std::uint64_t ms);

  /// One raw request/response round trip. False on any socket or protocol
  /// error (the connection is unusable afterwards).
  bool call(const WireMap& request, WireMap* response, std::string* error);

  /// Typed round trip: frames `req`, parses the reply into *out. False only
  /// on transport/parse failure — an unhappy Status (kOverload, ...) is a
  /// successful call whose outcome is in out->status.
  bool analyze(const Request& req, Response* out, std::string* error);

  /// Classification of the most recent connect/call failure; kNone after
  /// a success or a non-transport (parse) failure.
  TransportError last_transport_error() const { return transport_error_; }

 private:
  bool finish_connect(int fd, const void* addr, std::size_t addr_len,
                      const std::string& what, std::string* error);
  bool apply_io_timeout(std::string* error);

  int fd_ = -1;
  FrameReader reader_;  ///< bound to fd_; reset on every connect and close
  std::uint64_t timeout_ms_ = 0;
  TransportError transport_error_ = TransportError::kNone;
};

/// Where the daemon lives: a Unix socket path, or host:port when the path
/// is empty.
struct Endpoint {
  std::string socket_path;
  std::string host = "127.0.0.1";
  int port = -1;
};

struct RetryPolicy {
  unsigned retries = 0;  ///< re-attempts after the first try (0 = one shot)
  std::uint64_t timeout_ms = 0;       ///< per-attempt connect/io cap; 0 = none
  std::uint64_t backoff_base_ms = 100;
  std::uint64_t backoff_max_ms = 2000;
};

/// One analyze() with up to `policy.retries` re-attempts, reconnecting each
/// time. Retried: transport failures and kOverload / kShutdown responses
/// (the daemon may be restarting). Not retried: parse failures and every
/// other response status — those are definitive answers. Between attempts
/// sleeps min(base << attempt, max) plus deterministic jitter derived from
/// (request fingerprint, attempt), so a thundering herd of identical
/// clients still spreads out, yet a given run is reproducible. On failure
/// *transport (optional) holds the classification of the last attempt.
bool analyze_with_retry(const Endpoint& ep, const RetryPolicy& policy,
                        const Request& req, Response* out, std::string* error,
                        TransportError* transport = nullptr);

/// Polls the daemon with svc/ping until it answers or `timeout_ms` elapses.
/// Deterministic backoff (10 ms doubling to a 200 ms cap — no jitter, so CI
/// logs are reproducible); each attempt reconnects with a bounded per-call
/// timeout. True once a ping answers ok. The startup twin of the ad-hoc
/// `for i in $(seq ...); do --ping; sleep 0.1; done` loops it replaces.
bool wait_ready(const Endpoint& ep, std::uint64_t timeout_ms,
                std::string* error);

}  // namespace quanta::svc
