// Copyright (c) hdc authors. Apache-2.0 license.
#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

size_t NearestRank(size_t n, double p) {
  // The guard keeps binary rounding (99.9 / 100 * 10000 = 9990.000000000002)
  // from pushing an exact rank up by one.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

bool Supports(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= kTailSamples;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t index = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (Supports(n, p)) best = p;
  }
  return best;
}

double ChunkedPercentile(const std::vector<std::vector<double>>& groups,
                         double p, size_t min_chunk, size_t* chunks) {
  std::vector<std::vector<double>> joined;
  std::vector<double> current;
  for (const std::vector<double>& group : groups) {
    current.insert(current.end(), group.begin(), group.end());
    if (current.size() >= min_chunk) {
      joined.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) {
    if (joined.empty()) {
      joined.push_back(std::move(current));
    } else {
      joined.back().insert(joined.back().end(), current.begin(),
                           current.end());
    }
  }
  std::vector<double> per_chunk;
  for (std::vector<double>& chunk : joined) {
    per_chunk.push_back(Percentile(std::move(chunk), p));
  }
  if (chunks != nullptr) *chunks = per_chunk.size();
  return Median(std::move(per_chunk));
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string TableRow(const Metric& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-40s %16.6g %-14s n=%zu", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  return buf;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
