// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/mutating_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "server/ranking.h"
#include "util/macros.h"

namespace hdc {

MutatingLocalServer::MutatingLocalServer(std::shared_ptr<const Dataset> initial,
                                         uint64_t k, uint64_t priority_seed)
    : schema_(initial->schema()), k_(k), priority_rng_(priority_seed) {
  rows_.reserve(initial->size());
  for (const Tuple& t : initial->tuples()) {
    rows_.push_back(Row{next_stable_id_++, priority_rng_.Next(), t});
  }
  RebuildIndex();
}

void MutatingLocalServer::RebuildIndex() {
  auto dataset = std::make_shared<Dataset>(schema_);
  std::vector<uint64_t> priorities;
  priorities.reserve(rows_.size());
  for (const Row& row : rows_) {
    dataset->AddUnchecked(row.tuple);
    priorities.push_back(row.priority);
  }
  index_ = std::make_shared<const LocalIndex>(
      std::move(dataset), k_, MakeFixedPriorityPolicy(std::move(priorities)));
  scratch_ = EvalScratch{};
}

Status MutatingLocalServer::Apply(const std::vector<Mutation>& burst) {
  // Validate the whole burst first: either all of it applies, or none.
  auto find_row = [&](uint64_t stable_id) {
    return std::find_if(rows_.begin(), rows_.end(), [&](const Row& r) {
      return r.stable_id == stable_id;
    });
  };
  // Deletes earlier in the burst must be visible to later validation, so
  // track ids the burst already removed.
  std::vector<uint64_t> deleted;
  auto burst_deleted = [&](uint64_t id) {
    return std::find(deleted.begin(), deleted.end(), id) != deleted.end();
  };
  // A tuple outside the schema's domains would be unreachable by any
  // rectangle query — a row no crawl could ever extract — so reject it.
  auto tuple_fits = [&](const Tuple& t, const char* what) -> Status {
    if (t.size() != schema_->num_attributes()) {
      return Status::InvalidArgument(std::string("mutation: ") + what +
                                     " arity mismatch");
    }
    for (size_t i = 0; i < t.size(); ++i) {
      if (!schema_->attribute(i).ValueInDomain(t[i])) {
        return Status::InvalidArgument(
            std::string("mutation: ") + what + " value " +
            std::to_string(t[i]) + " outside the domain of attribute " +
            schema_->attribute(i).name);
      }
    }
    return Status::OK();
  };
  for (const Mutation& m : burst) {
    switch (m.kind) {
      case Mutation::Kind::kInsert:
        HDC_RETURN_IF_ERROR(tuple_fits(m.tuple, "insert"));
        break;
      case Mutation::Kind::kDelete:
      case Mutation::Kind::kUpdate:
        if (find_row(m.stable_id) == rows_.end() ||
            burst_deleted(m.stable_id)) {
          return Status::InvalidArgument(
              "mutation: unknown stable id " + std::to_string(m.stable_id));
        }
        if (m.kind == Mutation::Kind::kUpdate) {
          HDC_RETURN_IF_ERROR(tuple_fits(m.tuple, "update"));
        }
        if (m.kind == Mutation::Kind::kDelete) deleted.push_back(m.stable_id);
        break;
    }
  }
  for (const Mutation& m : burst) {
    switch (m.kind) {
      case Mutation::Kind::kInsert:
        rows_.push_back(Row{next_stable_id_++, priority_rng_.Next(), m.tuple});
        break;
      case Mutation::Kind::kDelete:
        rows_.erase(find_row(m.stable_id));
        break;
      case Mutation::Kind::kUpdate:
        find_row(m.stable_id)->tuple = m.tuple;
        break;
    }
  }
  ++db_version_;
  RebuildIndex();
  return Status::OK();
}

void MutatingLocalServer::ScheduleAt(uint64_t at_queries_served,
                                     std::vector<Mutation> burst) {
  ScheduledBurst scheduled{at_queries_served, std::move(burst)};
  // Insert keeping trigger order; equal triggers keep scheduling order.
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [&](const ScheduledBurst& b) {
                           return b.at_queries_served >
                                  scheduled.at_queries_served;
                         });
  pending_.insert(it, std::move(scheduled));
}

void MutatingLocalServer::FireDueBursts() {
  while (!pending_.empty() &&
         pending_.front().at_queries_served <= queries_served_) {
    std::vector<Mutation> burst = std::move(pending_.front().burst);
    pending_.erase(pending_.begin());
    // A scripted burst is authored against known ids; a failure here is a
    // broken script, surfaced loudly rather than swallowed.
    Status status = Apply(burst);
    HDC_CHECK(status.ok());
  }
}

Status MutatingLocalServer::IssueBatch(const std::vector<Query>& queries,
                                       std::vector<Response>* responses) {
  responses->assign(queries.size(), Response{});
  for (size_t i = 0; i < queries.size(); ++i) {
    FireDueBursts();
    QueryStats stats;
    Response& response = (*responses)[i];
    index_->AnswerQuery(queries[i], &response, &scratch_, &stats);
    // LocalIndex reports row positions; translate to ids that survive
    // mutations.
    for (ReturnedTuple& rt : response.tuples) {
      rt.hidden_id = rows_[rt.hidden_id].stable_id;
    }
    ++queries_served_;
  }
  return Status::OK();
}

std::vector<std::pair<uint64_t, Tuple>> MutatingLocalServer::Rows() const {
  std::vector<std::pair<uint64_t, Tuple>> out;
  out.reserve(rows_.size());
  for (const Row& row : rows_) out.emplace_back(row.stable_id, row.tuple);
  return out;
}

std::shared_ptr<const Dataset> MutatingLocalServer::Snapshot() const {
  auto dataset = std::make_shared<Dataset>(schema_);
  for (const Row& row : rows_) dataset->AddUnchecked(row.tuple);
  return dataset;
}

}  // namespace hdc
