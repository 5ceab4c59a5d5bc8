// Copyright (c) hdc authors. Apache-2.0 license.
//
// TimedServer: the benchmark's timing decorator. It wraps the server handed
// to the crawler (and, when sharded, each shard backend) and times every
// call from outside the library. Each call is one round. It keeps per-round
// durations for the round-latency percentiles and, in the traced run, a
// span per round, the shard spans under it, and the round's queries for
// replay through the lower layers.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "server/server.h"
#include "trace.h"

namespace perfbench {

class TimedServer : public hdc::HiddenDbServer {
 public:
  TimedServer(std::unique_ptr<hdc::HiddenDbServer> inner,
              const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}

  hdc::Status Issue(const hdc::Query& query,
                    hdc::Response* response) override {
    const int64_t start = NowNs();
    hdc::Status s = inner_->Issue(query, response);
    const int64_t end = NowNs();
    if (record_ != nullptr) record_->push_back({query});
    Observe(start, end, 1, s.ok() ? response->size() : 0,
            s.ok() && response->overflow);
    return s;
  }

  hdc::Status IssueBatch(const std::vector<hdc::Query>& queries,
                         std::vector<hdc::Response>* responses) override {
    const int64_t start = NowNs();
    hdc::Status s = inner_->IssueBatch(queries, responses);
    const int64_t end = NowNs();
    if (record_ != nullptr) record_->push_back(queries);
    uint64_t tuples = 0;
    uint64_t overflows = 0;
    for (const hdc::Response& r : *responses) {
      tuples += r.size();
      overflows += r.overflow ? 1 : 0;
    }
    Observe(start, end, responses->size(), tuples, overflows);
    return s;
  }

  uint64_t k() const override { return inner_->k(); }
  const hdc::SchemaPtr& schema() const override { return inner_->schema(); }
  unsigned batch_parallelism() const override {
    return inner_->batch_parallelism();
  }
  hdc::ServerLoadHint load_hint() const override {
    return inner_->load_hint();
  }
  uint64_t db_version() const override { return inner_->db_version(); }

  /// Traced mode: a span per round under tracer->current(), with the
  /// last-call spans of `children` (shard backends) under it.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  void set_children(std::vector<TimedServer*> children) {
    children_ = std::move(children);
  }
  /// Traced mode: appends each round's queries to `rounds` (null: off).
  void set_recorder(std::vector<std::vector<hdc::Query>>* rounds) {
    record_ = rounds;
  }

  /// Clears the per-crawl accounting below.
  void Reset() {
    round_seconds_.clear();
    queries_ = tuples_ = overflows_ = 0;
    slowest_child_ns_ = 0;
  }

  /// Duration of every round since Reset, in call order.
  const std::vector<double>& round_seconds() const { return round_seconds_; }
  uint64_t queries() const { return queries_; }
  uint64_t tuples() const { return tuples_; }
  uint64_t overflows() const { return overflows_; }
  /// Sum over rounds of the slowest child's call in that round.
  double slowest_child_seconds() const { return Seconds(slowest_child_ns_); }

 private:
  void Observe(int64_t start, int64_t end, uint64_t answered,
               uint64_t tuples, uint64_t overflows) {
    last_start_ns_ = start;
    last_end_ns_ = end;
    round_seconds_.push_back(Seconds(end - start));
    queries_ += answered;
    tuples_ += tuples;
    overflows_ += overflows;
    // A child whose last call started before this round was not called
    // in it (an empty round scatters nothing).
    int64_t slowest = 0;
    for (const TimedServer* child : children_) {
      if (child->last_start_ns_ < start) continue;
      slowest = std::max(slowest, child->last_end_ns_ - child->last_start_ns_);
    }
    slowest_child_ns_ += slowest;
    if (tracer_ == nullptr) return;
    const int32_t round = tracer_->Add(span_name_, start, end,
                                       tracer_->current());
    for (const TimedServer* child : children_) {
      if (child->last_start_ns_ < start) continue;
      tracer_->Add(child->span_name_, child->last_start_ns_,
                   child->last_end_ns_, round);
    }
  }

  std::unique_ptr<hdc::HiddenDbServer> inner_;
  const char* span_name_;
  Tracer* tracer_ = nullptr;
  std::vector<TimedServer*> children_;
  std::vector<std::vector<hdc::Query>>* record_ = nullptr;

  std::vector<double> round_seconds_;
  uint64_t queries_ = 0;
  uint64_t tuples_ = 0;
  uint64_t overflows_ = 0;
  int64_t slowest_child_ns_ = 0;
  // Written by the thread that made the call; a parent reads them only
  // after its own inner call (which joins the scatter threads) returns.
  int64_t last_start_ns_ = 0;
  int64_t last_end_ns_ = 0;
};

}  // namespace perfbench
