#include "svc/wire.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"

namespace quanta::svc {

void WireMap::set(std::string key, std::string value) {
  fields_.emplace_back(std::move(key), std::move(value));
}

void WireMap::set_u64(std::string key, std::uint64_t v) {
  set(std::move(key), std::to_string(v));
}

void WireMap::set_i64(std::string key, std::int64_t v) {
  set(std::move(key), std::to_string(v));
}

void WireMap::set_f64(std::string key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  set(std::move(key), buf);
}

const std::string* WireMap::get(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// The value of a numeric field as a C string, or nullptr when absent or
/// when it holds a NUL: a decoded value may carry \u0000, and the C
/// parsers would stop there and accept the prefix ("5\u0000x" as 5).
const char* numeric_text(const std::string* s) {
  if (s == nullptr || s->find('\0') != std::string::npos) return nullptr;
  return s->c_str();
}

}  // namespace

std::optional<std::uint64_t> WireMap::get_u64(const std::string& key) const {
  const char* s = numeric_text(this->get(key));
  if (s == nullptr || std::strchr(s, '-') != nullptr) return std::nullopt;
  return common::parse_u64(s);
}

std::optional<std::int64_t> WireMap::get_i64(const std::string& key) const {
  const std::string* s = this->get(key);
  if (numeric_text(s) == nullptr || s->empty()) return std::nullopt;
  char* endp = nullptr;
  errno = 0;
  const long long v = std::strtoll(s->c_str(), &endp, 10);
  if (errno != 0 || endp == s->c_str() || *endp != '\0') return std::nullopt;
  return v;
}

std::optional<double> WireMap::get_f64(const std::string& key) const {
  const std::string* s = this->get(key);
  if (numeric_text(s) == nullptr || s->empty()) return std::nullopt;
  char* endp = nullptr;
  errno = 0;
  const double v = std::strtod(s->c_str(), &endp);
  if (errno != 0 || endp == s->c_str() || *endp != '\0') return std::nullopt;
  return v;
}

namespace {

void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const char* why) {
    error = why;
    return false;
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') {
      return fail("expected string");
    }
    ++pos;
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      char e = text[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // Flat ASCII protocol: only the control-plane range is expected;
          // anything above is passed through as UTF-8 for robustness.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }
  /// Bare scalar (number / true / false / null), captured as raw text.
  bool parse_scalar(std::string* out) {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size()) {
      char c = text[pos];
      if (c == ',' || c == '}' || c == ' ' || c == '\t' || c == '\n' ||
          c == '\r') {
        break;
      }
      if (c == '{' || c == '[' || c == '"') {
        return fail("nested values are not supported");
      }
      ++pos;
    }
    if (pos == start) return fail("expected value");
    out->assign(text, start, pos - start);
    return true;
  }
};

}  // namespace

std::string WireMap::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(&out, k);
    out.push_back(':');
    append_json_string(&out, v);
  }
  out.push_back('}');
  return out;
}

std::optional<WireMap> WireMap::parse_json(const std::string& text,
                                           std::string* error) {
  Parser p{text, 0, {}};
  WireMap out;
  auto fail = [&](const std::string& why) -> std::optional<WireMap> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!p.consume('{')) return fail("expected '{'");
  p.skip_ws();
  if (!p.consume('}')) {
    for (;;) {
      std::string key, value;
      if (!p.parse_string(&key)) return fail(p.error);
      if (!p.consume(':')) return fail("expected ':'");
      p.skip_ws();
      if (p.pos < p.text.size() && p.text[p.pos] == '"') {
        if (!p.parse_string(&value)) return fail(p.error);
      } else {
        if (!p.parse_scalar(&value)) return fail(p.error);
      }
      out.set(std::move(key), std::move(value));
      if (p.consume(',')) continue;
      if (p.consume('}')) break;
      return fail("expected ',' or '}'");
    }
  }
  p.skip_ws();
  if (p.pos != p.text.size()) return fail("trailing content after object");
  return out;
}

namespace {

constexpr std::size_t kHeaderBytes = 4;
/// A reader's smallest buffer, so that one recv takes in any ordinary
/// request or answer whole.
constexpr std::size_t kReadChunk = std::size_t{16} << 10;

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char hdr[kHeaderBytes] = {
      static_cast<unsigned char>(len & 0xFF),
      static_cast<unsigned char>((len >> 8) & 0xFF),
      static_cast<unsigned char>((len >> 16) & 0xFF),
      static_cast<unsigned char>((len >> 24) & 0xFF),
  };
  iovec iov[2] = {{hdr, sizeof(hdr)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as a
    // return value, not a SIGPIPE that kills the daemon.
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Partial write: drop what went out and send the rest.
    auto sent = static_cast<std::size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

void FrameReader::reset(int fd) {
  fd_ = fd;
  head_ = tail_ = 0;
}

std::uint32_t FrameReader::buffered_length() const {
  const auto* h = reinterpret_cast<const unsigned char*>(buf_.data() + head_);
  return static_cast<std::uint32_t>(h[0]) |
         (static_cast<std::uint32_t>(h[1]) << 8) |
         (static_cast<std::uint32_t>(h[2]) << 16) |
         (static_cast<std::uint32_t>(h[3]) << 24);
}

bool FrameReader::frame_buffered() const {
  const std::size_t avail = tail_ - head_;
  if (avail < kHeaderBytes) return false;
  const std::uint32_t len = buffered_length();
  return len > kMaxFrameBytes || avail - kHeaderBytes >= len;
}

FrameStatus FrameReader::read(std::string* payload) {
  for (;;) {
    const std::size_t avail = tail_ - head_;
    std::size_t need = kHeaderBytes;  // buffered bytes the next frame takes
    if (avail >= kHeaderBytes) {
      const std::uint32_t len = buffered_length();
      if (len > kMaxFrameBytes) return FrameStatus::kTooLarge;
      need += len;
      if (avail >= need) {
        payload->assign(buf_.data() + head_ + kHeaderBytes, len);
        head_ += need;
        if (head_ == tail_) head_ = tail_ = 0;
        return FrameStatus::kOk;
      }
    }
    // Move the partial frame to the front, then make room for at least the
    // rest of it and recv whatever the socket holds.
    if (head_ > 0) {
      std::memmove(buf_.data(), buf_.data() + head_, avail);
      head_ = 0;
      tail_ = avail;
    }
    if (buf_.size() < std::max(need, kReadChunk)) {
      buf_.resize(std::max(need, kReadChunk));
    }
    const ssize_t n = ::recv(fd_, buf_.data() + tail_, buf_.size() - tail_, 0);
    ++recv_calls_;
    if (n < 0) {
      if (errno == EINTR) continue;
      return FrameStatus::kError;
    }
    if (n == 0) return avail == 0 ? FrameStatus::kEof : FrameStatus::kTruncated;
    tail_ += static_cast<std::size_t>(n);
  }
}

}  // namespace quanta::svc
