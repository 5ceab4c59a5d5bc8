// Copyright (c) hdc authors. Apache-2.0 license.
#include "workload.h"

#include <sys/stat.h>

#include <utility>

#include "core/crawlers.h"
#include "core/frontier_log.h"
#include "gen/adult_gen.h"
#include "gen/nsf_gen.h"
#include "gen/yahoo_gen.h"
#include "net/frame.h"
#include "server/answer_cache.h"
#include "server/local_server.h"
#include "server/ranking.h"
#include "util/macros.h"

namespace perfbench {

using hdc::CrawlResult;
using hdc::Dataset;
using hdc::Query;
using hdc::Response;
using hdc::Tuple;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const WorkloadSpec kWorkloads[] = {
    {"yahoo10x-local", DataKind::kYahoo10x, 1000, false, Backend::kSession, 1,
     false},
    {"nsf-remote", DataKind::kNsf, 128, true, Backend::kRemote, 16, false},
    {"adult-durable", DataKind::kAdult, 128, false, Backend::kSession, 1,
     true},
    {"adult-sharded", DataKind::kAdult, 128, false, Backend::kSharded, 0,
     false},
};

constexpr size_t kYahoo10xRows = 697680;  // 10x the paper's 69,768
constexpr unsigned kShards = 4;
constexpr unsigned kRemoteParallelism = 4;
constexpr size_t kFrameHeaderBytes = 5;   // u32 length + type byte

/// XOR-ing the seed with this maps the default seed 2012 onto the
/// library's default ranking seed 0x5eed, one-to-one for every seed.
constexpr uint64_t kRankingSeedMask = 2012 ^ 0x5eed;

std::shared_ptr<const Dataset> Generate(DataKind kind, uint64_t seed) {
  switch (kind) {
    case DataKind::kYahoo10x: {
      hdc::YahooGeneratorOptions options;
      options.num_tuples = kYahoo10xRows;
      options.seed = seed;
      return std::make_shared<const Dataset>(hdc::GenerateYahoo(options));
    }
    case DataKind::kNsf: {
      hdc::NsfGeneratorOptions options;
      options.seed = seed;
      return std::make_shared<const Dataset>(hdc::GenerateNsf(options));
    }
    case DataKind::kAdult: {
      hdc::AdultGeneratorOptions options;
      options.seed = seed;
      return std::make_shared<const Dataset>(hdc::GenerateAdult(options));
    }
  }
  return nullptr;
}

std::unique_ptr<hdc::RankingPolicy> Ranking(uint64_t seed) {
  return hdc::MakeRandomPriorityPolicy(seed ^ kRankingSeedMask);
}

double Between(int64_t start_ns, int64_t end_ns) {
  return Seconds(end_ns - start_ns);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t InstanceSeed(uint64_t seed, size_t instance) {
  if (instance == 0) return seed;
  // SplitMix64's finaliser over the pair.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(instance);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Exact multiset comparison against the generated data: an open-addressing
/// table of the distinct source tuples with their multiplicities. A crawl
/// matches when every tuple it extracted equals a source tuple value for
/// value and every multiplicity agrees.
class Bench::Verifier {
 public:
  explicit Verifier(std::shared_ptr<const Dataset> source)
      : source_(std::move(source)) {
    size_t capacity = 16;
    while (capacity * 7 < source_->size() * 10) capacity *= 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    for (size_t row = 0; row < source_->size(); ++row) {
      Slot* slot = Find(source_->tuple(row));
      if (slot->row == kEmpty) slot->row = static_cast<uint32_t>(row);
      ++slot->expected;
    }
  }

  /// Empty when `tuples` is exactly the source multiset, else why not.
  std::string Check(const std::vector<Tuple>& tuples) {
    if (tuples.size() != source_->size()) {
      return "extracted " + std::to_string(tuples.size()) + " tuples of " +
             std::to_string(source_->size());
    }
    for (Slot& slot : slots_) slot.seen = 0;
    for (const Tuple& tuple : tuples) {
      Slot* slot = Find(tuple);
      if (slot->row == kEmpty) return "extracted a tuple not in the source";
      ++slot->seen;
    }
    for (const Slot& slot : slots_) {
      if (slot.seen != slot.expected) return "tuple multiplicities differ";
    }
    return "";
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t row = kEmpty;  ///< a source row holding the tuple
    uint32_t expected = 0;
    uint32_t seen = 0;
  };

  /// The slot holding `tuple`, or the empty slot where it would go.
  Slot* Find(const Tuple& tuple) {
    for (size_t i = tuple.Hash() & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.row == kEmpty || source_->tuple(slot.row) == tuple) {
        return &slot;
      }
    }
  }

  std::shared_ptr<const Dataset> source_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

Bench::Bench(const WorkloadSpec& spec, std::string work_dir)
    : spec_(spec),
      log_path_(std::move(work_dir) + "/" + spec.name + ".frontier-log"),
      sink_([this](const Tuple& tuple) { sink_tuples_.push_back(tuple); }) {
  if (spec_.lazy_slice_cover) {
    crawler_ = std::make_unique<hdc::SliceCoverCrawler>(/*lazy=*/true);
  } else {
    crawler_ = std::make_unique<hdc::HybridCrawler>();
  }
}

Bench::~Bench() { Teardown(); }

void Bench::Teardown() {
  // Sessions and connections before the service and endpoint they use.
  outer_.reset();
  remote_ = nullptr;
  sharded_ = nullptr;
  shards_.clear();
  replay_session_.reset();
  endpoint_.reset();
  service_.reset();
  indexes_.clear();
  data_.reset();
}

SetupTimes Bench::Setup(uint64_t seed) {
  Teardown();
  seed_ = seed;
  verifier_.reset();
  const int64_t start = NowNs();
  data_ = Generate(spec_.data, seed_);
  const int64_t generated = NowNs();

  switch (spec_.backend) {
    case Backend::kSession: {
      indexes_.push_back(std::make_shared<const hdc::LocalIndex>(
          data_, spec_.k, Ranking(seed_)));
      service_ = std::make_unique<hdc::CrawlService>(indexes_[0]);
      outer_ = std::make_unique<TimedServer>(service_->CreateSession(),
                                             "server.round");
      break;
    }
    case Backend::kRemote: {
      indexes_.push_back(std::make_shared<const hdc::LocalIndex>(
          data_, spec_.k, Ranking(seed_)));
      hdc::CrawlServiceOptions service_options;
      service_options.max_parallelism = kRemoteParallelism;
      service_ = std::make_unique<hdc::CrawlService>(indexes_[0],
                                                     service_options);
      // One connection needs one dispatch thread; with the pool's three
      // workers that keeps evaluation within four threads.
      hdc::net::ServiceEndpointOptions endpoint_options;
      endpoint_options.dispatch_threads = 1;
      endpoint_ = std::make_unique<hdc::net::ServiceEndpoint>(
          service_.get(), endpoint_options);
      HDC_CHECK_OK(endpoint_->Start());
      std::unique_ptr<hdc::net::RemoteServer> remote;
      hdc::net::RemoteServerOptions remote_options;
      remote_options.label = spec_.name;
      HDC_CHECK_OK(hdc::net::RemoteServer::Connect(
          "127.0.0.1", endpoint_->port(), remote_options, &remote));
      remote_ = remote.get();
      outer_ = std::make_unique<TimedServer>(std::move(remote),
                                             "server.round");
      break;
    }
    case Backend::kSharded: {
      hdc::ShardPlanOptions plan_options;
      plan_options.num_shards = kShards;
      plan_options.split = hdc::ShardSplit::kHash;
      const hdc::ShardPlan plan = hdc::ShardPlan::Partition(
          data_, spec_.k, Ranking(seed_), plan_options);
      std::vector<hdc::ShardBackend> backends;
      for (size_t s = 0; s < plan.num_shards(); ++s) {
        indexes_.push_back(plan.BuildShardIndex(s));
        auto shard = std::make_unique<TimedServer>(
            std::make_unique<hdc::LocalServer>(indexes_.back()),
            "server.shard");
        shards_.push_back(shard.get());
        hdc::ShardBackend backend;
        backend.server = std::move(shard);
        backend.global_ids = plan.shard_global_ids(s);
        backends.push_back(std::move(backend));
      }
      auto sharded = std::make_unique<hdc::ShardedServer>(
          std::move(backends), plan.shared_global_priorities());
      sharded_ = sharded.get();
      outer_ = std::make_unique<TimedServer>(std::move(sharded),
                                             "server.round");
      outer_->set_children(shards_);
      break;
    }
  }
  const int64_t built = NowNs();
  verifier_ = std::make_unique<Verifier>(data_);
  sink_tuples_.reserve(data_->size());
  return SetupTimes{Between(start, generated), Between(generated, built),
                    Between(start, built)};
}

std::string Bench::RunReference() {
  std::unique_ptr<hdc::LocalServer> reference;
  if (spec_.backend == Backend::kSharded) {
    reference =
        std::make_unique<hdc::LocalServer>(data_, spec_.k, Ranking(seed_));
  } else {
    reference = std::make_unique<hdc::LocalServer>(indexes_[0]);
  }
  const CrawlResult result = crawler_->Crawl(reference.get());
  if (!result.status.ok()) {
    return "reference crawl failed: " + result.status.ToString();
  }
  reference_queries_ = result.queries_issued;
  const std::string mismatch = verifier_->Check(result.extracted.tuples());
  return mismatch.empty() ? "" : "reference crawl: " + mismatch;
}

std::string Bench::Verify(const CrawlResult& result, bool with_log) const {
  if (!result.status.ok()) return "crawl failed: " + result.status.ToString();
  if (result.queries_issued != reference_queries_) {
    return "billed " + std::to_string(result.queries_issued) +
           " queries, the reference crawl " +
           std::to_string(reference_queries_);
  }
  const std::string mismatch = verifier_->Check(
      spec_.durable ? sink_tuples_ : result.extracted.tuples());
  if (!mismatch.empty()) return mismatch;
  if (!spec_.durable || !with_log) return "";

  std::shared_ptr<hdc::CrawlState> replayed;
  const hdc::Status s =
      hdc::ReplayFrontierLog(log_path_, data_->schema(), &replayed);
  if (!s.ok()) return "frontier log replay failed: " + s.ToString();
  if (!replayed->Finished()) return "replayed frontier log is not finished";
  if (replayed->queries_issued != result.queries_issued ||
      replayed->tuples_collected != result.tuples_collected) {
    return "replayed frontier log disagrees with the crawl's bill or count";
  }
  return "";
}

CrawlRun Bench::Crawl(Tracer* tracer, bool with_log) {
  outer_->Reset();
  for (TimedServer* shard : shards_) shard->Reset();
  sink_tuples_.clear();
  rounds_.clear();
  log_bytes_ = log_size_ = log_commits_ = 0;

  hdc::CrawlOptions options;
  options.batch_size = spec_.batch_size;
  std::unique_ptr<hdc::FrontierLogWriter> log;
  if (spec_.durable) {
    options.materialize = false;
    options.sink = &sink_;
    if (with_log) {
      hdc::FrontierLogOptions log_options;  // sync on, default rotation
      if (tracer != nullptr) {
        // A commit either appends a record or rewrites the log as one
        // snapshot segment, which leaves the file shorter than before.
        log_options.on_commit = [this](uint64_t) {
          struct stat st;
          if (::stat(log_path_.c_str(), &st) != 0) return;
          const uint64_t size = static_cast<uint64_t>(st.st_size);
          log_bytes_ += size < log_size_ ? size : size - log_size_;
          log_size_ = size;
        };
      }
      HDC_CHECK_OK(
          hdc::FrontierLogWriter::Open(log_path_, log_options, &log));
      options.frontier_log = log.get();
    }
  }

  const Counters before = ReadCounters();
  int32_t crawl_span = -1;
  if (tracer != nullptr) {
    tracer->BeginCrawl();
    crawl_span = tracer->Open("crawl", -1);
    tracer->set_current(crawl_span);
    outer_->set_tracer(tracer);
    outer_->set_recorder(&rounds_);
  }
  const int64_t start = NowNs();
  const CrawlResult result = crawler_->Crawl(outer_.get(), options);
  const int64_t end = NowNs();
  if (tracer != nullptr) {
    tracer->Close(crawl_span);
    outer_->set_tracer(nullptr);
    outer_->set_recorder(nullptr);
  }
  if (log != nullptr) log_commits_ = log->commits();
  log.reset();

  CrawlRun run;
  run.crawl_s = Between(start, end);
  run.tuples = result.tuples_collected;
  run.round_s = outer_->round_seconds();
  double in_server = 0;
  for (double s : run.round_s) in_server += s;
  run.client_self_s = run.crawl_s - in_server;
  run.failure = Verify(result, with_log);
  if (tracer != nullptr && run.failure.empty()) {
    ReplayLayers(tracer, crawl_span, ReadCounters() - before, &run);
  }
  return run;
}

Bench::Counters Bench::ReadCounters() const {
  Counters c;
  if (sharded_ != nullptr) {
    for (size_t s = 0; s < sharded_->num_shards(); ++s) {
      c.shard_candidates += sharded_->shard_stats(s).candidates_contributed;
      c.shard_failures += sharded_->shard_stats(s).failures;
    }
  }
  if (remote_ != nullptr) {
    c.queue_wait_s = remote_->load_hint().queue_wait_total_seconds;
    c.reconnects = remote_->reconnects();
  }
  return c;
}

void Bench::ReplayLayers(Tracer* tracer, int32_t crawl_span,
                         const Counters& delta, CrawlRun* run) {
  std::map<std::string, double>& m = run->layers;
  const uint32_t crawl = tracer->crawl();
  const double queries = static_cast<double>(outer_->queries());
  const double returned = static_cast<double>(outer_->tuples());
  const double round_s = tracer->TotalSeconds(crawl, "server.round");

  m["core.rounds"] = static_cast<double>(rounds_.size());
  m["core.queries_per_round"] = queries / static_cast<double>(rounds_.size());
  m["core.client_self_s"] = tracer->SelfSeconds(crawl_span);

  // Index replay: the crawl's queries, round by round, through the public
  // evaluation calls of every index that served them. On the remote
  // workload each round's answers are then pushed through the wire codec
  // exactly as the endpoint and the client would.
  const bool remote = spec_.backend == Backend::kRemote;
  const size_t arity = data_->schema()->num_attributes();
  hdc::EvalScratch scratch;
  hdc::QueryStats stats;
  uint64_t examined = 0;
  uint64_t wire_bytes = 0;
  std::vector<Response> answers;
  const int32_t replay = tracer->Open("replay", -1);
  for (const std::vector<Query>& round : rounds_) {
    int64_t t = NowNs();
    for (const Query& query : round) {
      for (const auto& index : indexes_) examined += index->CountMatches(query);
    }
    int64_t u = NowNs();
    tracer->Add("replay.count", t, u, replay);

    t = NowNs();
    answers.resize(round.size());
    for (size_t i = 0; i < round.size(); ++i) {
      for (const auto& index : indexes_) {
        index->AnswerQuery(round[i], &answers[i], &scratch, &stats);
      }
    }
    u = NowNs();
    tracer->Add("replay.answer", t, u, replay);
    if (!remote) continue;

    t = NowNs();
    bool decoded = true;
    const std::string batch = hdc::net::EncodeQueryBatch(round);
    std::vector<Query> queries_back;
    decoded &= hdc::net::DecodeQueryBatch(batch, data_->schema(),
                                          &queries_back).ok();
    wire_bytes += kFrameHeaderBytes + batch.size();
    for (const Response& answer : answers) {
      const uint64_t hash = hdc::HashResponse(answer);
      const std::string frame = hdc::net::EncodeResponse(answer, &hash);
      Response back;
      decoded &= hdc::net::DecodeResponse(frame, arity, &back).ok();
      wire_bytes += kFrameHeaderBytes + frame.size();
    }
    const std::string end_frame =
        hdc::net::EncodeBatchEnd(hdc::net::BatchEndMessage{});
    hdc::net::BatchEndMessage end_back;
    decoded &= hdc::net::DecodeBatchEnd(end_frame, &end_back).ok();
    wire_bytes += kFrameHeaderBytes + end_frame.size();
    u = NowNs();
    tracer->Add("replay.codec", t, u, replay);
    if (!decoded) run->failure = "wire codec replay failed to decode";
  }
  if (remote) {
    if (replay_session_ == nullptr) {
      replay_session_ = service_->CreateSession();
    }
    for (const std::vector<Query>& round : rounds_) {
      const int64_t t = NowNs();
      const hdc::Status s = replay_session_->IssueBatch(round, &answers);
      tracer->Add("replay.session", t, NowNs(), replay);
      if (!s.ok()) run->failure = "session replay failed: " + s.ToString();
    }
  }
  tracer->Close(replay);

  const double count_s = tracer->TotalSeconds(crawl, "replay.count");
  const double answer_s = tracer->TotalSeconds(crawl, "replay.answer");
  m["server.index.count_s"] = count_s;
  m["server.index.answer_s"] = answer_s;
  m["server.index.topk_s"] = answer_s - count_s;
  m["server.index.examined_per_returned"] =
      static_cast<double>(examined) / returned;
  m["server.index.overflow_ratio"] =
      static_cast<double>(outer_->overflows()) / queries;

  switch (spec_.backend) {
    case Backend::kSession:
      m["server.session_s"] = round_s - answer_s;
      break;
    case Backend::kSharded: {
      m["server.session_s"] =
          tracer->TotalSeconds(crawl, "server.shard") - answer_s;
      // Scatter overhead is the rounds' time outside every shard call
      // (thread start, join, merge); on one CPU the shard calls of a round
      // run one after another, so "round - slowest shard" would count the
      // other shards' evaluation as overhead.
      m["server.sharding.slowest_shard_s"] = outer_->slowest_child_seconds();
      m["server.sharding.scatter_overhead_s"] =
          tracer->TotalSelfSeconds(crawl, "server.round");
      m["server.sharding.candidates_per_result"] =
          static_cast<double>(delta.shard_candidates) / returned;
      m["server.sharding.shard_failures"] =
          static_cast<double>(delta.shard_failures);
      break;
    }
    case Backend::kRemote: {
      const double eval_s = tracer->TotalSeconds(crawl, "replay.session");
      const double codec_s = tracer->TotalSeconds(crawl, "replay.codec");
      m["net.round_s"] = round_s;
      m["net.codec_s"] = codec_s;
      m["net.wire_bytes_per_query"] = static_cast<double>(wire_bytes) / queries;
      m["net.server_eval_s"] = eval_s;
      m["net.transport_s"] = round_s - codec_s - eval_s;
      m["server.pool.queue_wait_s"] = delta.queue_wait_s;
      m["net.reconnects"] = static_cast<double>(delta.reconnects);
      break;
    }
  }
  if (spec_.durable) {
    m["core.frontier_log.commits"] = static_cast<double>(log_commits_);
    m["core.frontier_log.bytes_written"] = static_cast<double>(log_bytes_);
    m["core.frontier_log.bytes_per_tuple"] =
        static_cast<double>(log_bytes_) / static_cast<double>(run->tuples);
  }
}

}  // namespace perfbench
