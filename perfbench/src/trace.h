// Copyright (c) hdc authors. Apache-2.0 license.
//
// In-memory spans for the traced benchmark run. A span is recorded by the
// benchmark around each call it makes into a layer of the library (the
// library itself is not instrumented): name, start, end, the span that
// caused it, and the crawl it belongs to. Spans stay in memory while the
// run measures and are written out as JSON lines when it ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since an arbitrary process-wide epoch.
int64_t NowNs();

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Span {
  const char* name = "";  ///< static string; one per layer boundary
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the causing span, -1 for a root
  uint32_t crawl = 0;   ///< crawl the span belongs to

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Starts a new crawl: later spans carry its id.
  void BeginCrawl() { ++crawl_; }
  uint32_t crawl() const { return crawl_; }

  /// The span new spans default to as their parent (-1: none).
  void set_current(int32_t span) { current_ = span; }
  int32_t current() const { return current_; }

  /// Records a finished span and returns its index.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent);

  /// Records an open span (end = start) to be finished by Close.
  int32_t Open(const char* name, int32_t parent) {
    const int64_t now = NowNs();
    return Add(name, now, now, parent);
  }
  void Close(int32_t span) { spans_[span].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of `name` spans in `crawl`, in seconds.
  double TotalSeconds(uint32_t crawl, std::string_view name) const;

  /// A span's duration minus the part of its interval that its direct
  /// children cover (the union of their intervals: the shards of one
  /// scatter round run concurrently). Children are recorded after their
  /// parent and start within it, and later siblings start after it ends.
  double SelfSeconds(int32_t span) const;

  /// Sum of SelfSeconds over the `name` spans in `crawl`.
  double TotalSelfSeconds(uint32_t crawl, std::string_view name) const;

  /// Writes one JSON object per span. False on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint32_t crawl_ = 0;
  int32_t current_ = -1;
};

}  // namespace perfbench
