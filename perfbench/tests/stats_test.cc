// Copyright (c) hdc authors. Apache-2.0 license.
//
// Tests of the benchmark's own statistics: nearest-rank percentiles, the
// rule that a reported percentile leaves at least ten samples beyond it,
// the chunked round percentiles, the sample counts in the printed tables,
// the result-line schema, and the span self-time arithmetic. Exits 1 when
// any check fails.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestNearestRank() {
  CHECK(Percentile(OneTo(100), 50) == 50);
  CHECK(Percentile(OneTo(100), 99) == 99);
  CHECK(Percentile(OneTo(100), 100) == 100);
  CHECK(Percentile(OneTo(4), 50) == 2);  // rank ceil(2) = 2
  CHECK(Percentile(OneTo(5), 50) == 3);
  CHECK(Median({7.5}) == 7.5);
  CHECK(Percentile({}, 50) == 0);
  CHECK(Percentile({3, 1, 2}, 99) == 3);
}

void TestTenBeyond() {
  CHECK(!Supports(19, 50));
  CHECK(Supports(20, 50));
  CHECK(!Supports(99, 90));
  CHECK(Supports(100, 90));
  CHECK(!Supports(999, 99));
  CHECK(Supports(1000, 99));
  CHECK(!Supports(9999, 99.9));
  CHECK(Supports(10000, 99.9));

  CHECK(HighestSupportedPercentile(0) == 0);
  CHECK(HighestSupportedPercentile(19) == 0);
  CHECK(HighestSupportedPercentile(20) == 50);
  CHECK(HighestSupportedPercentile(999) == 90);
  CHECK(HighestSupportedPercentile(1000) == 99);
  CHECK(HighestSupportedPercentile(10000) == 99.9);

  // Whenever a percentile is reported, at least ten measured samples are
  // strictly greater than it (distinct values), and the value is a sample.
  for (size_t n = 1; n <= 3000; n += 7) {
    const std::vector<double> samples = OneTo(n);
    const double p = HighestSupportedPercentile(n);
    if (p == 0) continue;
    const double value = Percentile(samples, p);
    size_t beyond = 0;
    for (double s : samples) beyond += s > value ? 1 : 0;
    CHECK(beyond >= kTailSamples);
    CHECK(value == static_cast<double>(NearestRank(n, p)));
  }
}

void TestChunkedPercentile() {
  // Three crawls of 600 rounds: chunks join crawls until 1000 samples, so
  // crawls 1+2 form one chunk and crawl 3 (too short alone) joins it.
  std::vector<std::vector<double>> crawls(3, std::vector<double>(600, 1.0));
  size_t chunks = 0;
  CHECK(ChunkedPercentile(crawls, 99, 1000, &chunks) == 1.0);
  CHECK(chunks == 1);

  // Five crawls of 1000 rounds; one suffers a burst (every sample 5000). The
  // median over per-crawl p99s ignores it; the pooled p99 would not.
  std::vector<std::vector<double>> runs;
  for (int c = 0; c < 5; ++c) {
    std::vector<double> rounds = OneTo(1000);
    if (c == 2) rounds.assign(1000, 5000.0);
    runs.push_back(rounds);
  }
  CHECK(ChunkedPercentile(runs, 99, 1000, &chunks) == 990);
  CHECK(chunks == 5);
  std::vector<double> pooled;
  for (const auto& r : runs) pooled.insert(pooled.end(), r.begin(), r.end());
  CHECK(Percentile(pooled, 99) == 5000);

  CHECK(ChunkedPercentile({}, 50, 1000, &chunks) == 0);
  CHECK(chunks == 0);
}

void TestSampleCounts() {
  const std::string row = TableRow({"round_us.p99", 12.5, "us", 2290});
  CHECK(row.find("round_us.p99") == 0);
  CHECK(row.find("n=2290") != std::string::npos);
  CHECK(row.find(" us ") != std::string::npos);
}

void TestResultLine() {
  CHECK(ResultLine(true, 3, 0, {{"crawl_s.p50", 1.5, "s", 3}}) ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"crawl_s.p50\": {\"value\": 1.5, \"unit\": \"s\"}}}");
  CHECK(ResultLine(false, 1, 1, {}) ==
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
        "\"metrics\": {}}");
  const std::string two =
      ResultLine(true, 2, 0, {{"a", 1, "count", 1}, {"b", 2, "B/query", 1}});
  CHECK(two.find("\"a\": {\"value\": 1, \"unit\": \"count\"}, \"b\": "
                 "{\"value\": 2, \"unit\": \"B/query\"}") !=
        std::string::npos);

  // Values keep every digit and always parse back.
  for (double v : {0.1, 1.0 / 3.0, 123456.789012345, 2.5e-7, 1e20}) {
    CHECK(std::strtod(FormatNumber(v).c_str(), nullptr) == v);
  }
  CHECK(FormatNumber(0.0 / 0.0) == "0");
  CHECK(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
}

void TestSelfTime() {
  Tracer tracer;
  tracer.BeginCrawl();
  const int32_t crawl = tracer.Add("crawl", 0, 1000, -1);
  const int32_t round = tracer.Add("server.round", 100, 400, crawl);
  // Two shards of one scatter overlap; their union is 100..350.
  tracer.Add("server.shard", 100, 300, round);
  tracer.Add("server.shard", 150, 350, round);
  tracer.Add("server.round", 500, 600, crawl);
  CHECK(tracer.SelfSeconds(crawl) == Seconds(1000 - 300 - 100));
  CHECK(tracer.SelfSeconds(round) == Seconds(300 - 250));
  CHECK(tracer.TotalSeconds(1, "server.round") == Seconds(400));
  CHECK(tracer.TotalSelfSeconds(1, "server.round") ==
        Seconds(300 - 250 + 100));
  CHECK(tracer.TotalSeconds(2, "server.round") == 0);
}

}  // namespace

int main() {
  TestNearestRank();
  TestTenBeyond();
  TestChunkedPercentile();
  TestSampleCounts();
  TestResultLine();
  TestSelfTime();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d checks failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all checks passed\n");
  return 0;
}
