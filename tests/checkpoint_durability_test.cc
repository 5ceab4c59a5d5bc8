// Copyright (c) hdc authors. Apache-2.0 license.
//
// Crash durability of checkpoint files. Two regressions pinned here:
//
//  1. SaveCheckpointFile used to rewrite the target in place, so a crash
//     mid-write destroyed the previous checkpoint. The fix writes a temp
//     file, fsyncs, and renames; whatever prefix of the new bytes a crash
//     leaves behind, the prior checkpoint must still load.
//
//  2. LoadCheckpoint on a truncated file must fail with a typed error that
//     names the offending line — and must never hand back a
//     partially-populated CrawlState.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/crawlers.h"
#include "core/frontier_log.h"
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

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A mid-crawl state with a non-trivial frontier, plus its serialized form.
struct Fixture {
  std::shared_ptr<Dataset> data;
  std::shared_ptr<CrawlState> state;
  std::string serialized;
};

Fixture MakeFixture(uint64_t seed, uint64_t budget) {
  Fixture f;
  SyntheticMixedOptions gen;
  gen.domain_sizes = {4, 5};
  gen.num_numeric = 1;
  gen.n = 500;
  gen.value_range = 120;
  gen.seed = seed;
  f.data = std::make_shared<Dataset>(GenerateSyntheticMixed(gen));
  LocalServer server(f.data,
                     std::max<uint64_t>(8, f.data->MaxPointMultiplicity()));
  HybridCrawler crawler;
  CrawlOptions options;
  options.max_queries = budget;
  CrawlResult partial = crawler.Crawl(&server, options);
  HDC_CHECK(partial.status.IsResourceExhausted());
  f.state = partial.resume_state;
  std::ostringstream out;
  HDC_CHECK(SaveCheckpoint(*f.state, *f.data->schema(), &out).ok());
  f.serialized = out.str();
  return f;
}

// Satellite 1: the torn-write regression. Simulate a crash at *every byte
// offset* of a subsequent save — the temp file holds an arbitrary prefix of
// the new checkpoint, the rename never happened — and require the prior
// checkpoint to survive intact.
TEST(CheckpointDurabilityTest, PriorCheckpointSurvivesTornOverwrite) {
  Fixture a = MakeFixture(51, 9);
  Fixture b = MakeFixture(51, 21);  // same crawl, further along
  ASSERT_NE(a.serialized, b.serialized);

  const std::string path = ::testing::TempDir() + "/hdc_torn_ckpt.txt";
  ASSERT_TRUE(SaveCheckpointFile(*a.state, *a.data->schema(), path).ok());
  const std::string saved_a = ReadWholeFile(path);
  ASSERT_EQ(saved_a, a.serialized);

  for (size_t offset = 0; offset <= b.serialized.size(); ++offset) {
    // The crash leaves the partial new bytes only in the temp file.
    WriteRaw(path + ".tmp", b.serialized.substr(0, offset));
    std::shared_ptr<CrawlState> restored;
    ASSERT_TRUE(ReplayFrontierLog(path, a.data->schema(), &restored).ok())
        << "prior checkpoint lost after torn write at offset " << offset;
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->queries_issued, a.state->queries_issued);
  }
  std::remove((path + ".tmp").c_str());

  // A save that *completes* atomically replaces the file with the new
  // checkpoint.
  ASSERT_TRUE(SaveCheckpointFile(*b.state, *b.data->schema(), path).ok());
  EXPECT_EQ(ReadWholeFile(path), b.serialized);
  std::shared_ptr<CrawlState> restored;
  ASSERT_TRUE(ReplayFrontierLog(path, b.data->schema(), &restored).ok());
  EXPECT_EQ(restored->queries_issued, b.state->queries_issued);
}

// Satellite 3: truncation anywhere inside the file is a typed failure and
// never a partially-populated state. (Only cutting the final newline — a
// complete final line — may still load.)
TEST(CheckpointDurabilityTest, TruncatedCheckpointNeverLoadsPartially) {
  Fixture f = MakeFixture(52, 15);
  const std::string& text = f.serialized;
  ASSERT_GT(text.size(), 100u);

  for (size_t offset = 0; offset < text.size(); ++offset) {
    std::istringstream in(text.substr(0, offset));
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    if (s.ok()) {
      // The only survivable cut: the final "frontier-end" line kept whole,
      // just missing its newline.
      EXPECT_EQ(offset, text.size() - 1) << "offset " << offset;
      continue;
    }
    EXPECT_EQ(restored, nullptr)
        << "partially-populated state escaped at offset " << offset;
    // Typed failure: truncation inside the header's version token reads as
    // an unsupported version (NotSupported); anywhere else it is an
    // InvalidArgument naming the line.
    EXPECT_TRUE(s.IsInvalidArgument() ||
                s.code() == Status::Code::kNotSupported)
        << s.ToString();
  }
}

TEST(CheckpointDurabilityTest, TruncationErrorsNameTheLine) {
  Fixture f = MakeFixture(53, 12);

  {  // Empty file: the error points at the missing header line.
    std::istringstream in("");
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.message().find("line 1"), std::string::npos) << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }

  {  // Cut mid-tuple: inside the extracted section, on a tuple line.
    const std::string marker = "extracted ";
    const size_t section = f.serialized.find(marker);
    ASSERT_NE(section, std::string::npos);
    const size_t first_tuple = f.serialized.find('\n', section) + 1;
    const size_t cut = first_tuple + 2;  // a few bytes into the tuple line
    ASSERT_LT(cut, f.serialized.size());
    std::istringstream in(f.serialized.substr(0, cut));
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.message().find("line "), std::string::npos) << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }

  {  // Frontier section cut off before frontier-end.
    const size_t end = f.serialized.rfind("frontier-end");
    ASSERT_NE(end, std::string::npos);
    std::istringstream in(f.serialized.substr(0, end));
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument());
    EXPECT_NE(s.message().find("line "), std::string::npos) << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }
}

// The file loader distinguishes "no checkpoint yet" from a corrupt one.
TEST(CheckpointDurabilityTest, MissingFileIsNotFound) {
  Fixture f = MakeFixture(54, 9);
  std::shared_ptr<CrawlState> restored;
  Status s = ReplayFrontierLog(::testing::TempDir() + "/hdc_no_such_ckpt",
                               f.data->schema(), &restored);
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
  EXPECT_EQ(restored, nullptr);
}

// The frontier is decoded after the rest of the file, from its collected
// lines; an error in it still names the file's own line.
TEST(CheckpointDurabilityTest, FrontierErrorsNameTheFileLine) {
  Fixture f = MakeFixture(56, 12);
  std::string text = f.serialized;
  const size_t at = text.find("\nitem ") + 1;
  ASSERT_NE(at, 0u);
  text[at] = '#';
  const size_t line = 1 + std::count(text.begin(), text.begin() + at, '\n');
  std::istringstream in(text);
  std::shared_ptr<CrawlState> restored;
  Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("line " + std::to_string(line) + ":"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(restored, nullptr);
}

// A declared count is input, not a size to allocate: an absurd one is a
// typed error naming a line, never an allocation failure that aborts.
TEST(CheckpointDurabilityTest, HugeDeclaredCountsAreTypedErrors) {
  Fixture f = MakeFixture(55, 12);
  const std::string huge = "4611686018427387904";  // 2^62
  auto line_of = [](const std::string& text, size_t at) {
    return 1 + std::count(text.begin(), text.begin() + at, '\n');
  };

  {  // A checkpoint's seen count: the seen line itself is at fault.
    std::string text = f.serialized;
    const size_t at = text.find("\nseen ") + 1;
    text.replace(at, text.find('\n', at) - at, "seen " + huge + " 1");
    std::istringstream in(text);
    std::shared_ptr<CrawlState> restored;
    Status s = LoadCheckpoint(&in, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("line " + std::to_string(line_of(text, at)) +
                               ":"),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }

  {  // A frontier log's extracted count: the first line after the real
     // tuples is not a tuple.
    const std::string path = ::testing::TempDir() + "/hdc_huge_count.log";
    std::remove(path.c_str());
    std::unique_ptr<FrontierLogWriter> log;
    FrontierLogOptions log_options;
    log_options.sync = false;
    ASSERT_TRUE(FrontierLogWriter::Open(path, log_options, &log).ok());
    ASSERT_TRUE(log->Commit(*f.state).ok());
    std::string text = ReadWholeFile(path);
    const size_t at = text.find("\nextracted ") + 1;
    const size_t end = text.find('\n', at);
    text.replace(at, end - at, "extracted " + huge);
    WriteRaw(path, text);
    const size_t first_non_tuple =
        line_of(text, at) + 1 + f.state->extracted.size();
    std::shared_ptr<CrawlState> restored;
    Status s = ReplayFrontierLog(path, f.data->schema(), &restored);
    ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("line " + std::to_string(first_non_tuple) +
                               ":"),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(restored, nullptr);
  }
}

}  // namespace
}  // namespace hdc
