// Copyright (c) hdc authors. Apache-2.0 license.
//
// The write-ahead frontier log. Every round boundary appends a durable
// delta; replaying the log after a crash reconstructs the state of the last
// committed round, and a torn tail — the only damage a crash can inflict,
// since snapshots are written atomically — is discarded, never misread.
#include "core/frontier_log.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/crawlers.h"
#include "gen/synthetic.h"
#include "server/local_server.h"
#include "util/macros.h"

namespace hdc {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

uint64_t FileSize(const std::string& path) {
  return ReadWholeFile(path).size();
}

/// Lowers RLIMIT_FSIZE and ignores SIGXFSZ, so an over-limit write()
/// fails with EFBIG instead of killing the process; both are restored on
/// scope exit.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
  }
  ~FileSizeLimit() {
    std::signal(SIGXFSZ, saved_handler_);
    ::setrlimit(RLIMIT_FSIZE, &saved_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*saved_handler_)(int) = SIG_DFL;
};

std::shared_ptr<CrawlState> LoadText(const std::string& text,
                                     const SchemaPtr& schema) {
  std::istringstream in(text);
  std::shared_ptr<CrawlState> state;
  Status s = LoadCheckpoint(&in, schema, &state);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return state;
}

std::string EncodedFrontier(const CrawlState& state) {
  std::ostringstream out;
  state.EncodeFrontier(&out);
  return out.str();
}

void ExpectSameState(const CrawlState& a, const CrawlState& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.tuples_collected, b.tuples_collected);
  EXPECT_EQ(a.seen_rows, b.seen_rows);
  EXPECT_TRUE(Dataset::MultisetEquals(a.extracted, b.extracted));
  EXPECT_EQ(EncodedFrontier(a), EncodedFrontier(b));
}

Dataset MakeData(uint64_t seed) {
  SyntheticMixedOptions gen;
  gen.domain_sizes = {4, 5};
  gen.num_numeric = 1;
  gen.n = 500;
  gen.value_range = 120;
  gen.seed = seed;
  return GenerateSyntheticMixed(gen);
}

TEST(FrontierLogTest, ReplayReconstructsTheInterruptedState) {
  Dataset data = MakeData(61);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  // Reference, uninterrupted.
  LocalServer ref_server(shared, k);
  HybridCrawler ref_crawler;
  CrawlResult reference = ref_crawler.Crawl(&ref_server);
  ASSERT_TRUE(reference.status.ok());

  const std::string path = ::testing::TempDir() + "/hdc_flog_replay.log";
  std::remove(path.c_str());

  // Interrupted crawl, logging every round.
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  ASSERT_TRUE(FrontierLogWriter::Open(path, FrontierLogOptions{}, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = 25;
  options.frontier_log = log.get();
  CrawlResult partial = crawler.Crawl(&server, options);
  ASSERT_TRUE(partial.status.IsResourceExhausted());
  ASSERT_GT(log->commits(), 0u);

  // Replay recovers exactly the state at the last committed round: with a
  // commit every round, that is the in-memory resume state.
  std::shared_ptr<CrawlState> replayed;
  ASSERT_TRUE(ReplayFrontierLog(path, data.schema(), &replayed).ok());
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->queries_issued, partial.resume_state->queries_issued);
  EXPECT_TRUE(Dataset::MultisetEquals(replayed->extracted,
                                      partial.resume_state->extracted));

  // Resuming the replayed state finishes with reference totals.
  HybridCrawler resumed_crawler;
  CrawlResult done = resumed_crawler.Resume(&server, replayed);
  ASSERT_TRUE(done.status.ok());
  EXPECT_TRUE(Dataset::MultisetEquals(done.extracted, data));
  EXPECT_EQ(done.queries_issued, reference.queries_issued);
}

TEST(FrontierLogTest, TornTailIsDiscardedAtEveryByteOffset) {
  Dataset data = MakeData(62);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_torn.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  FrontierLogOptions log_options;
  log_options.sync = false;  // speed: durability is not what we test here
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult full = crawler.Crawl(&server, options);
  ASSERT_TRUE(full.status.ok());

  const std::string bytes = ReadWholeFile(path);
  // Snapshots are written via atomic rename, so a crash can only tear the
  // *appended* region after the snapshot's frontier.
  const std::string marker = "frontier-end\n";
  const size_t marker_pos = bytes.find(marker);
  ASSERT_NE(marker_pos, std::string::npos);
  const size_t tail_start = marker_pos + marker.size();
  ASSERT_LT(tail_start, bytes.size()) << "crawl appended no round records";

  uint64_t last_queries = 0;
  for (size_t offset = tail_start; offset <= bytes.size(); ++offset) {
    std::istringstream torn(bytes.substr(0, offset));
    std::shared_ptr<CrawlState> replayed;
    Status s = LoadCheckpoint(&torn, data.schema(), &replayed);
    ASSERT_TRUE(s.ok()) << "offset " << offset << ": " << s.ToString();
    ASSERT_NE(replayed, nullptr) << "offset " << offset;
    // Progress is monotone in the prefix length and never overshoots the
    // final state.
    EXPECT_GE(replayed->queries_issued, last_queries) << "offset " << offset;
    EXPECT_LE(replayed->queries_issued, full.queries_issued);
    last_queries = replayed->queries_issued;
  }
  // The untorn log replays to the completed crawl.
  std::shared_ptr<CrawlState> final_state;
  ASSERT_TRUE(ReplayFrontierLog(path, data.schema(), &final_state).ok());
  EXPECT_EQ(final_state->queries_issued, full.queries_issued);
  EXPECT_TRUE(final_state->Finished());
  EXPECT_TRUE(Dataset::MultisetEquals(final_state->extracted, data));
}

TEST(FrontierLogTest, CorruptCommittedRecordIsATypedErrorNamingTheLine) {
  Dataset data = MakeData(62);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_corrupt.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  FrontierLogOptions log_options;
  log_options.sync = false;
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult full = crawler.Crawl(&server, options);
  ASSERT_TRUE(full.status.ok());
  const std::string bytes = ReadWholeFile(path);

  // One damaged byte inside round 3, which many later commits follow: a
  // crash cannot produce it, so replay must refuse the log rather than
  // stop there and silently drop every later committed round.
  const size_t round3 = bytes.find("round 3\n");
  ASSERT_NE(round3, std::string::npos);
  const std::string damaged_lines[] = {"round 3\n", "queries ", "frontier ",
                                       "commit 3\n"};
  for (const std::string& target : damaged_lines) {
    const size_t at = bytes.find(target, round3);
    ASSERT_NE(at, std::string::npos) << target;
    std::string corrupt = bytes;
    corrupt[at + 1] = '#';
    const std::string corrupt_path =
        ::testing::TempDir() + "/hdc_flog_corrupt_cut.log";
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out << corrupt;
    out.close();

    const uint64_t line =
        1 + static_cast<uint64_t>(
                std::count(bytes.begin(), bytes.begin() + at, '\n'));
    std::shared_ptr<CrawlState> replayed;
    Status s = ReplayFrontierLog(corrupt_path, data.schema(), &replayed);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument)
        << target << ": " << s.ToString();
    EXPECT_NE(s.message().find("line " + std::to_string(line) + ":"),
              std::string::npos)
        << target << ": " << s.ToString();
  }
}

TEST(FrontierLogTest, RotationResnapshotsAndStaysReplayable) {
  Dataset data = MakeData(63);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_rotate.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  FrontierLogOptions log_options;
  log_options.rotate_bytes = 512;  // force frequent re-snapshots
  log_options.sync = false;
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult full = crawler.Crawl(&server, options);
  ASSERT_TRUE(full.status.ok());

  // Rotation kept the file near the rotate threshold instead of growing
  // with the whole crawl history.
  EXPECT_LT(FileSize(path), 512u + 8u * 4096u);

  std::shared_ptr<CrawlState> replayed;
  ASSERT_TRUE(ReplayFrontierLog(path, data.schema(), &replayed).ok());
  EXPECT_TRUE(replayed->Finished());
  EXPECT_EQ(replayed->queries_issued, full.queries_issued);
  EXPECT_TRUE(Dataset::MultisetEquals(replayed->extracted, data));
}

// Logs written before the checkpoint and log formats merged wrap the
// snapshot in "hdc-frontier-log 1" / "snapshot-begin" ... "snapshot-end".
// A crawl killed under such a build must resume with all its progress.
TEST(FrontierLogTest, LegacyWrappedLogReplaysLikeTheCurrentFormat) {
  Dataset data = MakeData(67);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_legacy.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  FrontierLogOptions log_options;
  log_options.sync = false;
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = 40;
  options.frontier_log = log.get();
  CrawlResult partial = crawler.Crawl(&server, options);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  const std::string current = ReadWholeFile(path);
  const std::string marker = "frontier-end\n";
  const size_t tail_start = current.find(marker) + marker.size();
  ASSERT_LT(tail_start, current.size()) << "crawl appended no round records";
  const std::string legacy = "hdc-frontier-log 1\nsnapshot-begin\n" +
                             current.substr(0, tail_start) +
                             "snapshot-end\n" + current.substr(tail_start);

  const SchemaPtr schema = data.schema();
  std::shared_ptr<CrawlState> from_current = LoadText(current, schema);
  std::shared_ptr<CrawlState> from_legacy = LoadText(legacy, schema);
  ASSERT_NE(from_current, nullptr);
  ASSERT_NE(from_legacy, nullptr);
  ExpectSameState(*from_legacy, *from_current);
  EXPECT_EQ(from_legacy->queries_issued, partial.resume_state->queries_issued);

  // Tearing the last record of either form drops exactly that record: both
  // replay to the log as it stood before the record's append.
  const size_t last_round = current.rfind("\nround ") + 1;
  const size_t cut = 5;
  std::shared_ptr<CrawlState> before_last =
      LoadText(current.substr(0, last_round), schema);
  std::shared_ptr<CrawlState> torn_current =
      LoadText(current.substr(0, current.size() - cut), schema);
  std::shared_ptr<CrawlState> torn_legacy =
      LoadText(legacy.substr(0, legacy.size() - cut), schema);
  ASSERT_NE(before_last, nullptr);
  ASSERT_NE(torn_current, nullptr);
  ASSERT_NE(torn_legacy, nullptr);
  EXPECT_LT(before_last->queries_issued, from_current->queries_issued);
  ExpectSameState(*torn_current, *before_last);
  ExpectSameState(*torn_legacy, *before_last);

  // The replayed legacy state resumes to the uninterrupted crawl's totals.
  LocalServer ref_server(shared, k);
  HybridCrawler ref_crawler;
  CrawlResult reference = ref_crawler.Crawl(&ref_server);
  ASSERT_TRUE(reference.status.ok());
  HybridCrawler resumed;
  CrawlResult done = resumed.Resume(&server, from_legacy);
  ASSERT_TRUE(done.status.ok()) << done.status.ToString();
  EXPECT_EQ(done.queries_issued, reference.queries_issued);
  EXPECT_TRUE(Dataset::MultisetEquals(done.extracted, data));
}

// A write that fails part-way leaves a torn record at the end of the log.
// The commits after it must not append behind that record (replay would
// then refuse the whole log); the next one rewrites the log as a snapshot,
// and the commit count only counts commits that landed.
TEST(FrontierLogTest, FailedAppendIsRepairedByTheNextCommit) {
  Dataset data = MakeData(66);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_efbig.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  uint64_t landed = 0;
  FrontierLogOptions log_options;
  log_options.sync = false;
  log_options.on_commit = [&landed](uint64_t) { ++landed; };
  std::unique_ptr<FrontierLogWriter> log;
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = 20;
  options.frontier_log = log.get();
  CrawlResult first = crawler.Crawl(&server, options);
  ASSERT_TRUE(first.status.IsResourceExhausted());
  ASSERT_GT(landed, 1u);

  // Room for 40 more bytes: the next round record is cut short.
  CrawlOptions rest;
  rest.frontier_log = log.get();
  CrawlResult failed(data.schema());
  {
    FileSizeLimit limit(FileSize(path) + 40);
    failed = crawler.Resume(&server, first.resume_state, rest);
  }
  ASSERT_EQ(failed.status.code(), Status::Code::kInternal)
      << failed.status.ToString();
  ASSERT_NE(failed.resume_state, nullptr);
  EXPECT_EQ(log->commits(), landed);

  // Limit lifted: the same writer carries the crawl to completion, and the
  // log replays to it.
  CrawlResult done = crawler.Resume(&server, failed.resume_state, rest);
  ASSERT_TRUE(done.status.ok()) << done.status.ToString();
  EXPECT_EQ(log->commits(), landed);
  std::shared_ptr<CrawlState> replayed;
  Status s = ReplayFrontierLog(path, data.schema(), &replayed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(replayed->Finished());
  EXPECT_EQ(replayed->queries_issued, done.queries_issued);
  EXPECT_TRUE(Dataset::MultisetEquals(replayed->extracted, data));
}

TEST(FrontierLogTest, MissingLogIsNotFound) {
  std::shared_ptr<CrawlState> replayed;
  Status s = ReplayFrontierLog(::testing::TempDir() + "/hdc_no_such_flog",
                               Schema::Numeric(1), &replayed);
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
  EXPECT_EQ(replayed, nullptr);
}

TEST(FrontierLogTest, NoOpCommitsDoNotGrowTheLog) {
  Dataset data = MakeData(64);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_noop.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::unique_ptr<FrontierLogWriter> log;
  ASSERT_TRUE(FrontierLogWriter::Open(path, FrontierLogOptions{}, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = 15;
  options.frontier_log = log.get();
  CrawlResult partial = crawler.Crawl(&server, options);
  ASSERT_TRUE(partial.status.IsResourceExhausted());

  const uint64_t size_before = FileSize(path);
  const uint64_t commits_before = log->commits();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log->Commit(*partial.resume_state).ok());
  }
  EXPECT_EQ(FileSize(path), size_before);
  EXPECT_EQ(log->commits(), commits_before);
}

TEST(FrontierLogTest, OnCommitFiresOncePerRoundInOrder) {
  Dataset data = MakeData(65);
  auto shared = std::make_shared<Dataset>(data);
  const uint64_t k = std::max<uint64_t>(8, data.MaxPointMultiplicity());

  const std::string path = ::testing::TempDir() + "/hdc_flog_cb.log";
  std::remove(path.c_str());
  LocalServer server(shared, k);
  std::vector<uint64_t> seqs;
  FrontierLogOptions log_options;
  log_options.sync = false;
  log_options.on_commit = [&seqs](uint64_t seq) { seqs.push_back(seq); };
  std::unique_ptr<FrontierLogWriter> log;
  ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
  HybridCrawler crawler;
  CrawlOptions options;
  options.frontier_log = log.get();
  CrawlResult full = crawler.Crawl(&server, options);
  ASSERT_TRUE(full.status.ok());

  ASSERT_EQ(seqs.size(), log->commits());
  for (size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
  }
}

}  // namespace
}  // namespace hdc
