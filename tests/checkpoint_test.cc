// Copyright (c) hdc authors. Apache-2.0 license.
//
// Durable checkpointing: an interrupted crawl serialized to text and
// restored in a fresh state must finish with the exact multiset and the
// same total query count as an uninterrupted crawl — across every
// algorithm.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/crawlers.h"
#include "core/frontier_log.h"
#include "gen/synthetic.h"
#include "server/decorators.h"
#include "server/local_server.h"

namespace hdc {
namespace {

struct CheckpointCase {
  std::string label;
  std::function<std::unique_ptr<Crawler>()> make_crawler;
  std::function<Dataset()> make_data;
};

std::vector<CheckpointCase> MakeCases() {
  std::vector<CheckpointCase> cases;
  cases.push_back({"rank_shrink",
                   [] { return std::make_unique<RankShrink>(); },
                   [] {
                     SyntheticNumericOptions gen;
                     gen.d = 2;
                     gen.n = 700;
                     gen.value_range = 350;
                     gen.seed = 31;
                     return GenerateSyntheticNumeric(gen);
                   }});
  cases.push_back({"binary_shrink",
                   [] { return std::make_unique<BinaryShrink>(); },
                   [] {
                     SyntheticNumericOptions gen;
                     gen.d = 2;
                     gen.n = 300;
                     gen.value_range = 64;
                     gen.seed = 32;
                     return GenerateSyntheticNumeric(gen);
                   }});
  cases.push_back({"dfs", [] { return std::make_unique<DfsCrawler>(); },
                   [] {
                     SyntheticCategoricalOptions gen;
                     gen.domain_sizes = {5, 7, 6};
                     gen.n = 600;
                     gen.seed = 33;
                     return GenerateSyntheticCategorical(gen);
                   }});
  cases.push_back({"slice_cover",
                   [] { return std::make_unique<SliceCoverCrawler>(false); },
                   [] {
                     SyntheticCategoricalOptions gen;
                     gen.domain_sizes = {5, 7, 6};
                     gen.n = 600;
                     gen.seed = 34;
                     return GenerateSyntheticCategorical(gen);
                   }});
  cases.push_back({"lazy_slice_cover",
                   [] { return std::make_unique<SliceCoverCrawler>(true); },
                   [] {
                     SyntheticCategoricalOptions gen;
                     gen.domain_sizes = {5, 7, 6};
                     gen.n = 600;
                     gen.seed = 35;
                     return GenerateSyntheticCategorical(gen);
                   }});
  cases.push_back({"hybrid", [] { return std::make_unique<HybridCrawler>(); },
                   [] {
                     SyntheticMixedOptions gen;
                     gen.domain_sizes = {4, 5};
                     gen.num_numeric = 1;
                     gen.n = 600;
                     gen.value_range = 120;
                     gen.seed = 36;
                     return GenerateSyntheticMixed(gen);
                   }});
  return cases;
}

class CheckpointTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CheckpointTest, SaveLoadResumeMatchesUninterrupted) {
  CheckpointCase test_case = MakeCases()[GetParam()];
  Dataset data = test_case.make_data();
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());
  auto shared = std::make_shared<Dataset>(data);

  // Reference run.
  LocalServer ref_server(shared, k);
  auto ref_crawler = test_case.make_crawler();
  CrawlResult reference = ref_crawler->Crawl(&ref_server);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_GT(reference.queries_issued, 12u);

  // Interrupt mid-crawl, checkpoint through text, restore, resume —
  // repeatedly, every 9 queries.
  LocalServer server(shared, k);
  auto crawler = test_case.make_crawler();
  CrawlOptions budget;
  budget.max_queries = 9;
  CrawlResult result = crawler->Crawl(&server, budget);
  int cycles = 0;
  while (result.status.IsResourceExhausted() && cycles < 10000) {
    ++cycles;
    std::stringstream stream;
    ASSERT_TRUE(SaveCheckpoint(*result.resume_state, *data.schema(), &stream)
                    .ok());
    std::shared_ptr<CrawlState> restored;
    ASSERT_TRUE(
        LoadCheckpoint(&stream, data.schema(), &restored).ok());

    // Fresh crawler object each cycle, as a new process would have.
    auto next = test_case.make_crawler();
    result = next->Resume(&server, restored, budget);
  }
  ASSERT_TRUE(result.status.ok())
      << test_case.label << ": " << result.status.ToString();
  EXPECT_GT(cycles, 0);
  EXPECT_TRUE(Dataset::MultisetEquals(result.extracted, data))
      << test_case.label;
  EXPECT_EQ(result.queries_issued, reference.queries_issued)
      << test_case.label;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CheckpointTest,
                         ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return MakeCases()[info.param].label;
                         });

TEST(CheckpointTest, FileRoundTrip) {
  SyntheticNumericOptions gen;
  gen.d = 1;
  gen.n = 400;
  gen.value_range = 200;
  gen.seed = 41;
  auto data = std::make_shared<Dataset>(GenerateSyntheticNumeric(gen));
  LocalServer server(data, 8);
  RankShrink crawler;
  CrawlOptions budget;
  budget.max_queries = 6;
  CrawlResult partial = crawler.Crawl(&server, budget);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  const std::string path = ::testing::TempDir() + "/hdc_ckpt.txt";
  ASSERT_TRUE(
      SaveCheckpointFile(*partial.resume_state, *data->schema(), path).ok());
  std::shared_ptr<CrawlState> restored;
  ASSERT_TRUE(ReplayFrontierLog(path, data->schema(), &restored).ok());
  CrawlResult done = crawler.Resume(&server, restored);
  ASSERT_TRUE(done.status.ok());
  EXPECT_TRUE(Dataset::MultisetEquals(done.extracted, *data));
}

TEST(CheckpointTest, RejectsWrongSchema) {
  SyntheticNumericOptions gen;
  gen.d = 2;
  gen.n = 200;
  gen.value_range = 100;
  gen.seed = 42;
  auto data = std::make_shared<Dataset>(GenerateSyntheticNumeric(gen));
  LocalServer server(data, 8);
  RankShrink crawler;
  CrawlOptions budget;
  budget.max_queries = 3;
  CrawlResult partial = crawler.Crawl(&server, budget);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  std::stringstream stream;
  ASSERT_TRUE(SaveCheckpoint(*partial.resume_state, *data->schema(), &stream)
                  .ok());
  std::shared_ptr<CrawlState> restored;
  Status s = LoadCheckpoint(&stream, Schema::Numeric(3), &restored);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// A checkpoint written in a *narrowed* numeric view (session
// schema_override) must load when the caller holds only the full-bounds
// schema: compatible schemas are accepted and the state comes back bound
// to the recorded, narrowed one.
TEST(CheckpointTest, AcceptsCompatibleNarrowedSchema) {
  SyntheticNumericOptions gen;
  gen.d = 2;
  gen.n = 400;
  gen.value_range = 200;
  gen.seed = 45;
  auto data = std::make_shared<Dataset>(GenerateSyntheticNumeric(gen));

  // The crawl runs in a half-width view of attribute 0.
  std::vector<AttributeSpec> attrs;
  for (size_t i = 0; i < data->schema()->num_attributes(); ++i) {
    attrs.push_back(data->schema()->attribute(i));
  }
  attrs[0].hi = (attrs[0].lo + attrs[0].hi) / 2;
  SchemaPtr narrowed = Schema::Make(std::move(attrs));

  LocalServer server(data, 8);
  SchemaOverrideServer view(&server, narrowed);
  BinaryShrink crawler;
  CrawlOptions budget;
  budget.max_queries = 15;
  CrawlResult partial = crawler.Crawl(&view, budget);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  std::stringstream stream;
  ASSERT_TRUE(SaveCheckpoint(*partial.resume_state, *narrowed, &stream).ok());

  // Load with the full schema: accepted, and the state is bound to the
  // narrowed space it was recorded in.
  std::shared_ptr<CrawlState> restored;
  Status s = LoadCheckpoint(&stream, data->schema(), &restored);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(*restored->extracted.schema() == *narrowed);
  EXPECT_FALSE(*restored->extracted.schema() == *data->schema());

  // The restored crawl finishes against the same narrowed view with the
  // uninterrupted run's total bill.
  CrawlResult uninterrupted = crawler.Crawl(&view);
  ASSERT_TRUE(uninterrupted.status.ok());
  CrawlResult done = crawler.Resume(&view, restored);
  ASSERT_TRUE(done.status.ok()) << done.status.ToString();
  EXPECT_EQ(done.queries_issued, uninterrupted.queries_issued);
  EXPECT_TRUE(
      Dataset::MultisetEquals(done.extracted, uninterrupted.extracted));
}

TEST(CheckpointTest, RejectsGarbage) {
  std::stringstream stream("not a checkpoint at all\n");
  std::shared_ptr<CrawlState> restored;
  EXPECT_FALSE(LoadCheckpoint(&stream, Schema::Numeric(1), &restored).ok());
}

TEST(CheckpointTest, RejectsTruncatedFrontier) {
  SyntheticNumericOptions gen;
  gen.d = 1;
  gen.n = 300;
  gen.value_range = 150;
  gen.seed = 43;
  auto data = std::make_shared<Dataset>(GenerateSyntheticNumeric(gen));
  LocalServer server(data, 8);
  RankShrink crawler;
  CrawlOptions budget;
  budget.max_queries = 4;
  CrawlResult partial = crawler.Crawl(&server, budget);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  std::stringstream stream;
  ASSERT_TRUE(SaveCheckpoint(*partial.resume_state, *data->schema(), &stream)
                  .ok());
  std::string text = stream.str();
  text = text.substr(0, text.rfind("frontier-end"));
  std::stringstream truncated(text);
  std::shared_ptr<CrawlState> restored;
  EXPECT_FALSE(
      LoadCheckpoint(&truncated, data->schema(), &restored).ok());
}

TEST(CheckpointTest, RefusesToCheckpointFailedCrawl) {
  SchemaPtr schema = Schema::Numeric(1);
  auto data = std::make_shared<Dataset>(schema);
  for (int i = 0; i < 5; ++i) data->Add(Tuple({7}));
  LocalServer server(data, 4);
  RankShrink crawler;
  CrawlResult result = crawler.Crawl(&server);
  ASSERT_TRUE(result.status.IsUnsolvable());
  // An unsolvable crawl produces no resume state at all.
  EXPECT_EQ(result.resume_state, nullptr);
}

TEST(CheckpointTest, SliceStateRoundTripPreservesTable) {
  // Interrupt a lazy crawl late enough that the slice table holds both
  // resolved (with bags) and overflowing entries; the restored state must
  // not re-issue any cached slice.
  SyntheticCategoricalOptions gen;
  gen.domain_sizes = {6, 8};
  gen.n = 500;
  gen.seed = 44;
  Dataset data = GenerateSyntheticCategorical(gen);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());
  auto shared = std::make_shared<Dataset>(data);

  LocalServer ref_server(shared, k);
  SliceCoverCrawler ref(true);
  CrawlResult reference = ref.Crawl(&ref_server);
  ASSERT_TRUE(reference.status.ok());

  LocalServer server(shared, k);
  SliceCoverCrawler crawler(true);
  CrawlOptions budget;
  budget.max_queries = reference.queries_issued / 2;
  CrawlResult partial = crawler.Crawl(&server, budget);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  std::stringstream stream;
  ASSERT_TRUE(SaveCheckpoint(*partial.resume_state, *data.schema(), &stream)
                  .ok());
  std::shared_ptr<CrawlState> restored;
  ASSERT_TRUE(LoadCheckpoint(&stream, data.schema(), &restored).ok());

  SliceCoverCrawler fresh(true);
  CrawlResult done = fresh.Resume(&server, restored);
  ASSERT_TRUE(done.status.ok());
  EXPECT_TRUE(Dataset::MultisetEquals(done.extracted, data));
  EXPECT_EQ(done.queries_issued, reference.queries_issued);
}

}  // namespace
}  // namespace hdc
