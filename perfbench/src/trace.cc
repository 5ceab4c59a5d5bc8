// Copyright (c) hdc authors. Apache-2.0 license.
#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

#include "stats.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int32_t parent) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, crawl_});
  return static_cast<int32_t>(spans_.size() - 1);
}

double Tracer::TotalSeconds(uint32_t crawl, std::string_view name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.crawl == crawl && name == span.name) total += span.duration_ns();
  }
  return Seconds(total);
}

double Tracer::SelfSeconds(int32_t span) const {
  const Span& self = spans_[span];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = static_cast<size_t>(span) + 1; i < spans_.size(); ++i) {
    if (spans_[i].start_ns >= self.end_ns) break;
    if (spans_[i].parent != span) continue;
    covered.emplace_back(std::max(spans_[i].start_ns, self.start_ns),
                         std::min(spans_[i].end_ns, self.end_ns));
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t reach = self.start_ns;
  for (const auto& [start, end] : covered) {
    const int64_t from = std::max(start, reach);
    if (end > from) {
      union_ns += end - from;
      reach = end;
    }
  }
  return Seconds(self.duration_ns() - union_ns);
}

double Tracer::TotalSelfSeconds(uint32_t crawl, std::string_view name) const {
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].crawl == crawl && name == spans_[i].name) {
      total += SelfSeconds(static_cast<int32_t>(i));
    }
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"crawl\": " << s.crawl
        << "}\n";
  }
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
