#include "svc/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace quanta::svc {

const char* transport_error_name(TransportError e) {
  switch (e) {
    case TransportError::kNone:
      return "none";
    case TransportError::kConnect:
      return "connect";
    case TransportError::kSend:
      return "send";
    case TransportError::kClosed:
      return "closed";
    case TransportError::kTruncated:
      return "truncated";
    case TransportError::kRecv:
      return "recv";
  }
  return "?";
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::exchange(other.reader_, FrameReader())),
      timeout_ms_(other.timeout_ms_),
      transport_error_(other.transport_error_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::exchange(other.reader_, FrameReader());
    timeout_ms_ = other.timeout_ms_;
    transport_error_ = other.transport_error_;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.reset();
}

void Client::set_timeout_ms(std::uint64_t ms) {
  timeout_ms_ = ms;
  std::string error;
  if (connected()) (void)apply_io_timeout(&error);
}

bool Client::apply_io_timeout(std::string* error) {
  timeval tv{};  // zero: block forever
  tv.tv_sec = static_cast<time_t>(timeout_ms_ / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms_ % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    *error = std::string("setsockopt(timeout): ") + std::strerror(errno);
    transport_error_ = TransportError::kConnect;
    close();
    return false;
  }
  return true;
}

bool Client::finish_connect(int fd, const void* addr, std::size_t addr_len,
                            const std::string& what, std::string* error) {
  fd_ = fd;
  reader_.reset(fd);
  auto fail = [&](const std::string& why) {
    *error = "connect " + what + ": " + why;
    transport_error_ = TransportError::kConnect;
    close();
    return false;
  };
  if (timeout_ms_ == 0) {
    if (::connect(fd_, static_cast<const sockaddr*>(addr),
                  static_cast<socklen_t>(addr_len)) < 0) {
      return fail(std::strerror(errno));
    }
    return true;
  }
  // Timed connect: non-blocking connect, poll for writability, then check
  // SO_ERROR and restore blocking mode (per-op timeouts come from
  // SO_RCVTIMEO/SO_SNDTIMEO afterwards).
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return fail(std::string("fcntl: ") + std::strerror(errno));
  }
  if (::connect(fd_, static_cast<const sockaddr*>(addr),
                static_cast<socklen_t>(addr_len)) < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      return fail(std::strerror(errno));
    }
    pollfd p{};
    p.fd = fd_;
    p.events = POLLOUT;
    int rc;
    do {
      rc = ::poll(&p, 1, static_cast<int>(timeout_ms_));
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) return fail("timed out");
    if (rc < 0) return fail(std::string("poll: ") + std::strerror(errno));
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
      return fail(std::string("getsockopt: ") + std::strerror(errno));
    }
    if (soerr != 0) return fail(std::strerror(soerr));
  }
  if (::fcntl(fd_, F_SETFL, flags) < 0) {
    return fail(std::string("fcntl: ") + std::strerror(errno));
  }
  return apply_io_timeout(error);
}

bool Client::connect_unix(const std::string& path, std::string* error) {
  close();
  transport_error_ = TransportError::kNone;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    transport_error_ = TransportError::kConnect;
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(AF_UNIX): ") + std::strerror(errno);
    transport_error_ = TransportError::kConnect;
    return false;
  }
  return finish_connect(fd, &addr, sizeof(addr), path, error);
}

bool Client::connect_tcp(const std::string& host, int port,
                         std::string* error) {
  close();
  transport_error_ = TransportError::kNone;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "invalid IPv4 address '" + host + "'";
    transport_error_ = TransportError::kConnect;
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(AF_INET): ") + std::strerror(errno);
    transport_error_ = TransportError::kConnect;
    return false;
  }
  return finish_connect(fd, &addr, sizeof(addr),
                        host + ":" + std::to_string(port), error);
}

bool Client::call(const WireMap& request, WireMap* response,
                  std::string* error) {
  transport_error_ = TransportError::kNone;
  if (fd_ < 0) {
    *error = "not connected";
    transport_error_ = TransportError::kConnect;
    return false;
  }
  if (!write_frame(fd_, request.to_json())) {
    *error = std::string("send: ") + std::strerror(errno);
    transport_error_ = TransportError::kSend;
    close();
    return false;
  }
  std::string payload;
  switch (reader_.read(&payload)) {
    case FrameStatus::kOk:
      break;
    case FrameStatus::kEof:
      *error = "connection closed by daemon";
      transport_error_ = TransportError::kClosed;
      close();
      return false;
    case FrameStatus::kTruncated:
      *error = "truncated response (daemon died mid-reply)";
      transport_error_ = TransportError::kTruncated;
      close();
      return false;
    case FrameStatus::kTooLarge:
      *error = "oversized response frame";
      transport_error_ = TransportError::kRecv;
      close();
      return false;
    case FrameStatus::kError:
      *error = std::string("recv: ") + std::strerror(errno);
      transport_error_ = TransportError::kRecv;
      close();
      return false;
  }
  auto parsed = WireMap::parse_json(payload, error);
  if (!parsed) {
    close();
    return false;
  }
  *response = std::move(*parsed);
  return true;
}

bool Client::analyze(const Request& req, Response* out, std::string* error) {
  WireMap reply;
  if (!call(to_wire(req), &reply, error)) return false;
  auto parsed = parse_response(reply, error);
  if (!parsed) return false;
  *out = std::move(*parsed);
  return true;
}

namespace {

/// FNV-1a over the request key and the attempt number: jitter that spreads
/// identical concurrent clients apart while staying reproducible.
std::uint64_t jitter_ms(const Request& req, unsigned attempt,
                        std::uint64_t spread) {
  if (spread == 0) return 0;
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\x1f';
    h *= 1099511628211ull;
  };
  mix(req.engine);
  mix(req.model);
  mix(req.query);
  h ^= attempt;
  h *= 1099511628211ull;
  return h % spread;
}

}  // namespace

bool analyze_with_retry(const Endpoint& ep, const RetryPolicy& policy,
                        const Request& req, Response* out, std::string* error,
                        TransportError* transport) {
  std::string err;
  TransportError te = TransportError::kNone;
  for (unsigned attempt = 0;; ++attempt) {
    Client client;
    client.set_timeout_ms(policy.timeout_ms);
    bool ok = ep.socket_path.empty()
                  ? client.connect_tcp(ep.host, ep.port, &err)
                  : client.connect_unix(ep.socket_path, &err);
    bool retryable = false;
    if (ok) {
      ok = client.analyze(req, out, &err);
      if (ok) {
        // A daemon shedding load or shutting down is worth another try;
        // every other status is the answer.
        retryable = out->status == Status::kOverload ||
                    out->status == Status::kShutdown;
        if (!retryable) {
          if (error != nullptr) error->clear();
          if (transport != nullptr) *transport = TransportError::kNone;
          return true;
        }
        err = "daemon answered " +
              std::string(out->status == Status::kOverload ? "overloaded"
                                                           : "shutting down");
        te = TransportError::kNone;
      }
    }
    if (!ok) {
      te = client.last_transport_error();
      // Parse failures (te == kNone) are protocol bugs, not weather.
      retryable = te != TransportError::kNone;
    }
    if (!retryable || attempt >= policy.retries) {
      if (error != nullptr) *error = err;
      if (transport != nullptr) *transport = te;
      return false;
    }
    std::uint64_t delay = policy.backoff_base_ms;
    if (attempt < 63) delay <<= attempt;
    if (delay > policy.backoff_max_ms) delay = policy.backoff_max_ms;
    delay += jitter_ms(req, attempt, policy.backoff_base_ms + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

bool wait_ready(const Endpoint& ep, std::uint64_t timeout_ms,
                std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  Request ping;
  ping.engine = "svc";
  ping.query = "ping";
  std::uint64_t backoff_ms = 10;
  std::string err = "timed out before the first attempt";
  for (;;) {
    Client client;
    // Bound each attempt so a daemon that accepts but never answers (e.g.
    // mid-crash) cannot absorb the whole budget in one read.
    client.set_timeout_ms(1000);
    WireMap reply;
    const bool ok = (ep.socket_path.empty()
                         ? client.connect_tcp(ep.host, ep.port, &err)
                         : client.connect_unix(ep.socket_path, &err)) &&
                    client.call(to_wire(ping), &reply, &err);
    if (ok) {
      const std::string* status = reply.get("status");
      if (status != nullptr && *status == "ok") {
        if (error != nullptr) error->clear();
        return true;
      }
      err = "daemon answered ping without status=ok";
    }
    const auto now = std::chrono::steady_clock::now();
    if (now + std::chrono::milliseconds(backoff_ms) >= deadline) {
      if (error != nullptr) {
        *error = "daemon not ready after " + std::to_string(timeout_ms) +
                 " ms (last failure: " + err + ")";
      }
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = backoff_ms < 100 ? backoff_ms * 2 : 200;
  }
}

}  // namespace quanta::svc
