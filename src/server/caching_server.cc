// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/caching_server.h"

#include <utility>

namespace hdc {

CachingServer::CachingServer(HiddenDbServer* base, AnswerCacheOptions options)
    : ServerDecorator(base),
      cache_(std::make_shared<AnswerCache>(options)) {}

CachingServer::CachingServer(HiddenDbServer* base,
                             std::shared_ptr<AnswerCache> cache)
    : ServerDecorator(base), cache_(std::move(cache)) {
  HDC_CHECK(cache_ != nullptr);
}

Status CachingServer::IssueBatch(const std::vector<Query>& queries,
                                 std::vector<Response>* responses) {
  responses->clear();
  responses->reserve(queries.size());

  // A pending run of consecutive non-hit members awaiting one sub-batch
  // forward to the wrapped server.
  std::vector<Query> run;
  std::vector<bool> run_revalidates;

  auto flush_run = [&]() -> Status {
    if (run.empty()) return Status::OK();
    std::vector<Response> run_responses;
    Status status = base_->IssueBatch(run, &run_responses);
    // The answered prefix of the sub-batch extends the caller's prefix
    // whether or not the sub-batch completed.
    for (size_t i = 0; i < run_responses.size(); ++i) {
      ++forwarded_queries_;
      if (run_revalidates[i]) {
        cache_->StoreRevalidation(run[i], run_responses[i],
                                  base_->db_version());
      } else {
        cache_->StoreMiss(run[i], run_responses[i], base_->db_version());
      }
      responses->push_back(std::move(run_responses[i]));
    }
    run.clear();
    run_revalidates.clear();
    return status;
  };

  for (const Query& query : queries) {
    Response cached;
    switch (cache_->Probe(query, base_->db_version(), &cached, nullptr)) {
      case AnswerCache::ProbeResult::kHit: {
        // Flush the preceding non-hit run first so member order holds. If
        // the flush fails mid-run, the prefix ends there and this member's
        // cached answer is not delivered (its hit was already counted — a
        // stats-only imprecision confined to the failure path).
        Status status = flush_run();
        if (!status.ok()) return status;
        responses->push_back(std::move(cached));
        break;
      }
      case AnswerCache::ProbeResult::kRevalidate:
        run.push_back(query);
        run_revalidates.push_back(true);
        break;
      case AnswerCache::ProbeResult::kMiss:
        run.push_back(query);
        run_revalidates.push_back(false);
        break;
    }
  }
  return flush_run();
}

}  // namespace hdc
