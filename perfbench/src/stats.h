// Copyright (c) hdc authors. Apache-2.0 license.
//
// Order statistics and the result line of the whole-crawl benchmark.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// sample at 1-based rank ceil(p/100 * n) of the sorted set, so it is always
// a measured value. A percentile is reported only when at least
// kTailSamples samples lie beyond its rank; fewer would make the tail a
// handful of outliers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile's rank for it to be reported.
inline constexpr size_t kTailSamples = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
size_t NearestRank(size_t n, double p);

/// True when `n` samples leave at least kTailSamples beyond percentile `p`.
bool Supports(size_t n, double p);

/// Nearest-rank percentile `p` of `samples`; 0 for an empty set.
double Percentile(std::vector<double> samples, double p);

/// Median by the same rule (percentile 50).
double Median(std::vector<double> samples);

/// The highest of 50, 90, 99 and 99.9 that `n` samples support; 0 when
/// even the median is unsupported.
double HighestSupportedPercentile(size_t n);

/// Robust percentile over a run's groups of samples (one group per
/// crawl): consecutive groups are joined into chunks of at least
/// `min_chunk` samples (a short remainder joins the last chunk), `p` is
/// taken within each chunk, and the median over chunks is returned. A
/// burst of interference then moves one chunk's figure, not the run's.
/// `chunks` (optional) receives the chunk count; 0 when there are no
/// samples.
double ChunkedPercentile(const std::vector<std::vector<double>>& groups,
                         double p, size_t min_chunk, size_t* chunks = nullptr);

/// One named figure of the result line. `samples` is how many
/// measurements the value summarizes; it is printed in the human-readable
/// table, not in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 1;
};

/// "<name> <value> <unit> n=<samples>", aligned, for the human-readable
/// tables printed before the result line.
std::string TableRow(const Metric& metric);

/// The benchmark's last stdout line:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
///    {"value": .., "unit": ..}, ...}}
/// Values print in shortest round-trip form; a non-finite value prints as
/// 0 so the line stays valid JSON.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Shortest decimal form that parses back to exactly `value`.
std::string FormatNumber(double value);

/// `s` as a JSON string literal (quotes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench
