// Copyright (c) hdc authors. Apache-2.0 license.
//
// The four whole-crawl workloads and the Bench that sets one up, crawls it
// repeatedly, verifies every crawl, and (traced) breaks each crawl down by
// layer. Each workload is a closed loop: one process, one crawling thread,
// at most one connection, the next crawl starting when the last one ends.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/crawler.h"
#include "core/crawl_sink.h"
#include "data/dataset.h"
#include "net/remote_server.h"
#include "net/service_endpoint.h"
#include "server/crawl_service.h"
#include "server/local_index.h"
#include "server/sharding.h"
#include "timed_server.h"
#include "trace.h"

namespace perfbench {

/// The seed whose generator and ranking seeds are the library defaults
/// (generators 2012, random-priority ranking 0x5eed).
inline constexpr uint64_t kDefaultSeed = 2012;

enum class DataKind { kYahoo10x, kNsf, kAdult };
enum class Backend { kSession, kRemote, kSharded };

struct WorkloadSpec {
  const char* name;
  DataKind data;
  uint64_t k;
  bool lazy_slice_cover;  ///< else the hybrid crawler
  Backend backend;
  uint32_t batch_size;    ///< CrawlOptions::batch_size (0 = auto)
  bool durable;           ///< frontier log + streaming sink
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The seed of a run's `instance`-th data instance: `seed` itself for the
/// first, then seeds mixed from (`seed`, `instance`), so one --seed always
/// gives the same sequence of instances.
uint64_t InstanceSeed(uint64_t seed, size_t instance);

struct SetupTimes {
  double gen_s = 0;    ///< data generation
  double build_s = 0;  ///< index or shard build, server stack, endpoint
  double total_s = 0;
};

/// One crawl as the benchmark saw it.
struct CrawlRun {
  std::string failure;  ///< empty when the crawl verified
  double crawl_s = 0;
  uint64_t tuples = 0;
  std::vector<double> round_s;  ///< time in the outermost server call
  double client_self_s = 0;     ///< crawl time outside the server call
  /// Traced crawls only: the per-layer figures of this crawl, by metric
  /// name (see perfbench/layers.json).
  std::map<std::string, double> layers;
};

class Bench {
 public:
  /// `work_dir` holds the frontier log; it must exist.
  Bench(const WorkloadSpec& spec, std::string work_dir);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Generates the data from `seed`, which also drives the ranking, and
  /// builds the server stack, replacing any previous one (then, untimed,
  /// readies verification against the data).
  SetupTimes Setup(uint64_t seed);

  /// Runs the reference crawl on the current set-up: sequential (batch 1),
  /// in-process, unsharded, no log. Every later crawl must bill exactly
  /// what it billed. Empty on success, else why it failed.
  std::string RunReference();

  uint64_t reference_queries() const { return reference_queries_; }

  /// One complete, verified crawl. With a tracer, the crawl's spans are
  /// recorded and its queries replayed through the lower layers to fill
  /// CrawlRun::layers. `with_log` = false drops the frontier log of a
  /// durable workload (the paired crawl that prices the log).
  CrawlRun Crawl(Tracer* tracer, bool with_log = true);

 private:
  /// Cumulative counters the library exposes, read before and after a
  /// crawl.
  struct Counters {
    uint64_t shard_candidates = 0;
    uint64_t shard_failures = 0;
    double queue_wait_s = 0;
    uint64_t reconnects = 0;

    Counters operator-(const Counters& o) const {
      return Counters{shard_candidates - o.shard_candidates,
                      shard_failures - o.shard_failures,
                      queue_wait_s - o.queue_wait_s,
                      reconnects - o.reconnects};
    }
  };

  void Teardown();
  Counters ReadCounters() const;
  std::string Verify(const hdc::CrawlResult& result, bool with_log) const;
  void ReplayLayers(Tracer* tracer, int32_t crawl_span, const Counters& delta,
                    CrawlRun* run);

  const WorkloadSpec spec_;
  uint64_t seed_ = 0;  ///< of the current set-up
  const std::string log_path_;

  std::shared_ptr<const hdc::Dataset> data_;
  /// The indexes that evaluate the workload's queries: one, or one per
  /// shard.
  std::vector<std::shared_ptr<const hdc::LocalIndex>> indexes_;
  std::unique_ptr<hdc::CrawlService> service_;
  std::unique_ptr<hdc::net::ServiceEndpoint> endpoint_;
  std::unique_ptr<TimedServer> outer_;  ///< what the crawler talks to
  hdc::net::RemoteServer* remote_ = nullptr;  ///< inside outer_, or null
  hdc::ShardedServer* sharded_ = nullptr;     ///< inside outer_, or null
  std::vector<TimedServer*> shards_;          ///< inside sharded_
  /// An in-process session on the remote workload's service, replaying
  /// recorded rounds to price server-side evaluation (traced only).
  std::unique_ptr<hdc::ServerSession> replay_session_;

  std::unique_ptr<hdc::Crawler> crawler_;
  class Verifier;
  std::unique_ptr<Verifier> verifier_;
  uint64_t reference_queries_ = 0;

  std::vector<hdc::Tuple> sink_tuples_;
  hdc::CallbackSink sink_;
  std::vector<std::vector<hdc::Query>> rounds_;  ///< traced crawl's rounds
  uint64_t log_commits_ = 0;
  uint64_t log_bytes_ = 0;  ///< bytes the log wrote during the crawl
  uint64_t log_size_ = 0;   ///< log file size after the last commit
};

}  // namespace perfbench
