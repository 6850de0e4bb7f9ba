// Shared helpers for the paper-reproduction benches: simple aligned table
// printing, wall-clock timing and the executor size.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace quanta::bench {

/// One executor worker per hardware thread (at least one): the size of the
/// benches that do not sweep the worker count. Results do not depend on it.
inline unsigned hardware_workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal fixed-width table printer for paper-style result tables.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        if (r[c].size() > width[c]) width[c] = r[c].size();
      }
    }
    auto print_row = [&width](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        std::printf("%s%-*s", c ? "  " : "  ", static_cast<int>(width[c]),
                    cells[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
    std::printf("  %s\n", std::string(total, '-').c_str());
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, const char* f = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

}  // namespace quanta::bench
