// Copyright (c) hdc authors. Apache-2.0 license.
//
// Whole-crawl benchmark: the command-line entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Sets the workload up, runs the reference crawl, then repeats complete
// verified crawls for --seconds, setting up afresh every block of crawls
// (setup_s is the median over the run's set-ups). Each set-up generates a
// new data instance, the first from --seed and the rest from seeds derived
// from it, and runs that instance's reference crawl.
// --trace 0 prints the end-to-end metrics. --trace 1 spends the first half
// of the window on untraced crawls and the second on traced ones, prints
// the per-layer metrics and the tracing overhead, and writes every span to
// <work-dir>/trace-<workload>-<seed>.jsonl. The last stdout line is the
// JSON result; the exit code is 1 when any crawl failed verification.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

/// A block of crawls lasts kBlockPerSetup set-up times, at least
/// kMinBlockSeconds, and at most a kMinSetups-th of the window (so every
/// run sets up at least kMinSetups times).
constexpr double kBlockPerSetup = 8;
constexpr double kMinBlockSeconds = 1.5;
constexpr double kMinSetups = 3;
/// Floors on the measured crawls, whatever --seconds says: enough rounds
/// for round_us.p99 (1000 leave 10 beyond it), and enough crawls for a
/// median.
constexpr size_t kMinCrawls = 3;
constexpr size_t kMinTracedCrawls = 2;
constexpr size_t kMinRounds = 1000;

/// Every end-to-end metric, in report order, with its unit.
/// crawl_fail_ratio is printed here but left out of the result line, which
/// carries it as failed / attempted (and it is 0 on every passing run).
const std::pair<const char*, const char*> kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"crawl_s.p50", "s"},
    {"tuples_per_s", "tuples/s"},
    {"round_us.p50", "us"},
    {"round_us.p99", "us"},
    {"queries_billed", "count"},
    {"crawl_fail_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, in report order, with its unit. A layer the
/// workload does not exercise reports 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"server.index.count_s", "s"},
    {"server.index.answer_s", "s"},
    {"server.index.topk_s", "s"},
    {"server.index.examined_per_returned", "rows/tuple"},
    {"server.index.overflow_ratio", "ratio"},
    {"server.session_s", "s"},
    {"core.client_self_s", "s"},
    {"core.rounds", "count"},
    {"core.queries_per_round", "queries/round"},
    {"core.frontier_log.commits", "count"},
    {"core.frontier_log.bytes_written", "B"},
    {"core.frontier_log.bytes_per_tuple", "B/tuple"},
    {"core.frontier_log.commit_s", "s"},
    {"server.sharding.slowest_shard_s", "s"},
    {"server.sharding.scatter_overhead_s", "s"},
    {"server.sharding.candidates_per_result", "rows/tuple"},
    {"server.sharding.shard_failures", "count"},
    {"net.round_s", "s"},
    {"net.codec_s", "s"},
    {"net.wire_bytes_per_query", "B/query"},
    {"net.server_eval_s", "s"},
    {"net.transport_s", "s"},
    {"server.pool.queue_wait_s", "s"},
    {"net.reconnects", "count"},
    {"setup.gen_s", "s"},
    {"setup.build_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Named values in a table's order and units.
template <size_t N>
std::vector<Metric> InOrder(
    const std::pair<const char*, const char*> (&table)[N],
    const std::map<std::string, std::pair<double, size_t>>& values) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : table) {
    const auto it = values.find(name);
    if (it == values.end()) {
      metrics.push_back({name, 0.0, unit, 0});
    } else {
      metrics.push_back({name, it->second.first, unit, it->second.second});
    }
  }
  return metrics;
}

/// Prints both metric tables as "<mode> <name> <unit>" lines.
int ListMetrics() {
  for (const auto& [name, unit] : kEndToEndMetrics) {
    std::printf("end_to_end %s %s\n", name, unit);
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    std::printf("per_layer %s %s\n", name, unit);
  }
  return 0;
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<yahoo10x-local|nsf-remote|adult-durable|adult-sharded> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) Usage("bad --trace");
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

/// Confines the process, and every thread it starts later, to one CPU: the
/// last one it may use. On a shared virtual machine a thread woken on
/// another, idle vCPU waits until the host schedules that vCPU; under host
/// load that wait made nsf-remote and adult-sharded crawls up to 3x slower
/// from one run to the next, while work on one busy vCPU stayed steady.
/// Pool and scatter threads still run, time-sharing that CPU, so the
/// figures are the stack's cost on one CPU, not a parallel speed-up.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      std::fprintf(stderr, "perfbench: cannot pin to CPU %d\n", cpu);
    }
    return;
  }
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Crawl outcomes of one run, and the failures among them.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Count(const std::string& failure, const char* what) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: %s failed verification: %s\n", what,
                 failure.c_str());
  }
};

std::vector<double> CrawlTimes(const std::vector<CrawlRun>& runs) {
  std::vector<double> times;
  for (const CrawlRun& run : runs) times.push_back(run.crawl_s);
  return times;
}

std::vector<double> SelfTimes(const std::vector<CrawlRun>& runs) {
  std::vector<double> times;
  for (const CrawlRun& run : runs) times.push_back(run.client_self_s);
  return times;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) std::printf("  %s\n", TableRow(m).c_str());
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    return ListMetrics();
  }
  const Args args = Parse(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Usage(("cannot create " + args.work_dir).c_str());

  PinToOneCpu();
  Bench bench(*spec, args.work_dir);
  std::vector<double> setup_s, gen_s, build_s, billed;
  Tally tally;
  const auto set_up = [&] {
    const SetupTimes t = bench.Setup(InstanceSeed(args.seed, setup_s.size()));
    setup_s.push_back(t.total_s);
    gen_s.push_back(t.gen_s);
    build_s.push_back(t.build_s);
    tally.Count(bench.RunReference(), "reference crawl");
    billed.push_back(static_cast<double>(bench.reference_queries()));
  };
  set_up();

  // Crawls run in blocks, each on a fresh set-up of a new data instance.
  // One instance's data moves the round times by up to a fifth (nsf-remote),
  // so a run's figures span several instances rather than one, and
  // setup_s gets one sample per block.
  const double block_s =
      std::min(std::max(kMinBlockSeconds, kBlockPerSetup * setup_s[0]),
               args.seconds / kMinSetups);
  int64_t block_start = NowNs();
  const auto next_block_if_due = [&] {
    if (Seconds(NowNs() - block_start) < block_s) return;
    set_up();
    block_start = NowNs();
  };

  // Untraced crawls: the whole window, or its first half when traced.
  const int64_t start = NowNs();
  const double untraced_window = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<CrawlRun> untraced;
  size_t rounds = 0;
  while (untraced.size() < kMinCrawls || rounds < kMinRounds ||
         Seconds(NowNs() - start) < untraced_window) {
    next_block_if_due();
    untraced.push_back(bench.Crawl(nullptr));
    tally.Count(untraced.back().failure, "crawl");
    rounds += untraced.back().round_s.size();
  }

  // Traced crawls; a durable workload pairs each with a log-free crawl.
  Tracer tracer;
  std::vector<CrawlRun> traced, unlogged;
  while (args.trace && (traced.size() < kMinTracedCrawls ||
                        Seconds(NowNs() - start) < args.seconds)) {
    next_block_if_due();
    traced.push_back(bench.Crawl(&tracer));
    tally.Count(traced.back().failure, "traced crawl");
    if (spec->durable) {
      unlogged.push_back(bench.Crawl(&tracer, /*with_log=*/false));
      tally.Count(unlogged.back().failure, "log-free crawl");
    }
  }
  const bool correct = tally.failed == 0;

  // Round percentiles: per chunk of consecutive crawls holding at least
  // kMinRounds rounds (so p99 has 10 samples beyond it in every chunk),
  // then the median over chunks.
  std::vector<std::vector<double>> round_us;
  size_t rounds_total = 0;
  for (const CrawlRun& run : untraced) {
    round_us.emplace_back();
    for (double s : run.round_s) round_us.back().push_back(s * 1e6);
    rounds_total += run.round_s.size();
  }
  size_t chunks = 0;
  const double round_p50 = ChunkedPercentile(round_us, 50, kMinRounds);
  const double round_p99 =
      ChunkedPercentile(round_us, 99, kMinRounds, &chunks);
  const double crawl_p50 = Median(CrawlTimes(untraced));
  const size_t crawls = untraced.size();
  std::vector<double> tuples_per_s;
  for (const CrawlRun& run : untraced) {
    tuples_per_s.push_back(static_cast<double>(run.tuples) / run.crawl_s);
  }
  const std::vector<Metric> end_to_end = InOrder(
      kEndToEndMetrics,
      {{"setup_s", {Median(setup_s), setup_s.size()}},
       {"crawl_s.p50", {crawl_p50, crawls}},
       {"tuples_per_s", {Median(tuples_per_s), crawls}},
       {"round_us.p50", {round_p50, rounds_total}},
       {"round_us.p99", {round_p99, rounds_total}},
       {"queries_billed", {Median(billed), billed.size()}},
       {"crawl_fail_ratio",
        {static_cast<double>(tally.failed) /
             static_cast<double>(tally.attempted),
         tally.attempted}},
       {"peak_rss_mb", {PeakRssMb(), 1}}});
  std::printf("workload %s seed %llu: %zu data instances, %zu crawls, %zu "
              "rounds in %zu chunks of >= %zu (highest percentile supported "
              "per chunk: p%g)\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              setup_s.size(), untraced.size(), rounds_total, chunks,
              kMinRounds,
              HighestSupportedPercentile(kMinRounds));
  PrintTable("end to end (untraced)", end_to_end);
  for (size_t i = 0; i < untraced.size(); ++i) {
    std::vector<double> us;
    for (double s : untraced[i].round_s) us.push_back(s * 1e6);
    std::printf("crawl %zu: %.6f s, %zu rounds, round p50 %.3f us\n", i,
                untraced[i].crawl_s, us.size(), Median(us));
  }

  std::vector<Metric> reported;
  for (const Metric& m : end_to_end) {
    if (m.name != "crawl_fail_ratio") reported.push_back(m);
  }
  if (args.trace) {
    std::map<std::string, std::vector<double>> layers;
    for (const CrawlRun& run : traced) {
      for (const auto& [name, value] : run.layers) {
        layers[name].push_back(value);
      }
    }
    layers["setup.gen_s"] = gen_s;
    layers["setup.build_s"] = build_s;
    layers["trace.overhead_s"] = {Median(CrawlTimes(traced)) - crawl_p50};
    if (spec->durable) {
      layers["core.frontier_log.commit_s"] = {Median(SelfTimes(traced)) -
                                              Median(SelfTimes(unlogged))};
    }
    std::map<std::string, std::pair<double, size_t>> medians;
    for (const auto& [name, values] : layers) {
      medians[name] = {Median(values), values.size()};
    }
    reported = InOrder(kLayerMetrics, medians);
    std::printf("traced crawl_s.p50 %.6g s vs untraced %.6g s\n",
                Median(CrawlTimes(traced)), crawl_p50);
    PrintTable("per layer (traced; medians over traced crawls)", reported);
    const std::string path = args.work_dir + "/trace-" + spec->name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (tracer.WriteJsonLines(path)) {
      std::printf("%zu spans written to %s\n", tracer.spans().size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", ResultLine(correct, tally.attempted, tally.failed,
                                 reported)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
