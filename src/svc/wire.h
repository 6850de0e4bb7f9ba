// Wire layer of the analysis service (src/svc): length-prefixed frames over
// a stream socket, each carrying one flat JSON object of string fields.
//
// Frame format (DESIGN.md "Analysis service"):
//
//   [payload length u32 LE] [payload bytes]
//
// A frame longer than kMaxFrameBytes is a protocol error — the peer is
// shedding garbage, not a query. The payload is a single-level JSON object;
// the canonical encoder writes every value as a JSON string (field order
// preserved), and the parser additionally accepts bare numbers / true /
// false / null for hand-written clients. Nested objects and arrays are
// rejected: requests and responses are flat key/value maps by design.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace quanta::svc {

/// Upper bound on one frame's payload; a length prefix beyond this is
/// treated as a protocol error and the connection is dropped.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Order-preserving flat string map — the in-memory form of one protocol
/// message. Typed setters/getters do the number formatting uniformly
/// (doubles as shortest-round-trip "%.17g", so re-encoding is bit-stable).
class WireMap {
 public:
  void set(std::string key, std::string value);
  void set_u64(std::string key, std::uint64_t v);
  void set_i64(std::string key, std::int64_t v);
  void set_f64(std::string key, double v);

  /// nullptr when the key is absent.
  const std::string* get(const std::string& key) const;
  /// Strict u64: whole non-negative decimal, no trailing garbage.
  std::optional<std::uint64_t> get_u64(const std::string& key) const;
  std::optional<std::int64_t> get_i64(const std::string& key) const;
  std::optional<double> get_f64(const std::string& key) const;

  bool empty() const { return fields_.empty(); }
  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }

  /// Canonical encoding: {"k":"v",...} with all values as JSON strings.
  std::string to_json() const;
  /// Parses one flat JSON object. On failure returns nullopt and (when
  /// `error` is non-null) a human-readable reason.
  static std::optional<WireMap> parse_json(const std::string& text,
                                           std::string* error);

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Why reading a frame ended. kTruncated (peer hung up mid-frame — e.g. a
/// daemon killed while replying) is kept distinct from kError (socket-level
/// failure) so retries and monitoring can tell a dying peer from a broken
/// transport.
enum class FrameStatus {
  kOk,         ///< one complete frame read
  kEof,        ///< clean end of stream at a frame boundary
  kTooLarge,   ///< length prefix exceeds kMaxFrameBytes
  kTruncated,  ///< EOF mid-frame: the peer died while sending
  kError,      ///< socket error (recv failure)
};

/// Writes one frame — header and payload — with a single sendmsg, looping
/// only on a partial write. False on any socket error (EPIPE included: the
/// send uses MSG_NOSIGNAL, so a vanished peer never raises SIGPIPE).
bool write_frame(int fd, const std::string& payload);

/// The one read path for frames: a per-connection buffered reader. Each
/// recv takes whatever the socket holds into a persistent buffer, and
/// complete frames are cut from it, so a frame normally costs one recv and
/// a frame already buffered behind another (pipelined) costs none. Bytes
/// past the returned frame are kept for the next read(). A reader belongs
/// to one fd at a time: reset() it whenever its connection is (re)opened or
/// closed, so no stale bytes leak into the next peer's stream.
class FrameReader {
 public:
  FrameReader() = default;
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Rebinds the reader to `fd` (-1 = none) and drops every buffered byte.
  void reset(int fd = -1);

  /// Blocks until one frame is read or the stream ends. kEof only at a
  /// frame boundary with nothing buffered, kTruncated on EOF after partial
  /// bytes, kTooLarge as soon as an oversized length prefix is seen (the
  /// payload is neither awaited nor allocated), kError on a recv failure.
  FrameStatus read(std::string* payload);

  /// True when read() can answer without touching the socket: a complete
  /// frame, or an oversized header, is already buffered. Callers that
  /// poll() the fd before reading must check this first.
  bool frame_buffered() const;

  /// recv calls issued so far (pins the one-syscall-per-frame contract).
  std::uint64_t recv_calls() const { return recv_calls_; }

 private:
  /// Length prefix of the frame at head_; needs 4 buffered bytes.
  std::uint32_t buffered_length() const;

  int fd_ = -1;
  std::string buf_;        ///< capacity; valid bytes are [head_, tail_)
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::uint64_t recv_calls_ = 0;
};

}  // namespace quanta::svc
