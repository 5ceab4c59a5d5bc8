// Copyright (c) hdc authors. Apache-2.0 license.
//
// Fuzz harness for the crawl-state loader (core/checkpoint.h), the one
// parser behind checkpoint files and frontier logs: a file left on disk by
// a crash, an older build or a damaged disk. Every input must load or fail
// with a typed error — never crash, never read out of bounds, never
// allocate a declared count unchecked. The loader runs against one fixed
// mixed schema so the seeds' schema lines match and the parse reaches the
// counts, the tuples, the round records and the frontier codec. A state
// that loads is saved again, which must not crash either.
//
// Build shapes (tests/fuzz/CMakeLists.txt), as for frame_decode_fuzz:
//   - clang + HDC_BUILD_FUZZERS: libFuzzer entry point (HDC_HAVE_LIBFUZZER),
//     run `crawl_state_fuzz -runs=N crawl_state_corpus/` for a bounded
//     smoke;
//   - any compiler: standalone driver replaying corpus files/dirs, which is
//     the tier-1 `crawl_state_fuzz_replay` ctest; `--generate DIR` rebuilds
//     the seed corpus from a short real crawl.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/checkpoint.h"

namespace {

using hdc::AttributeSpec;
using hdc::Schema;
using hdc::SchemaPtr;

/// One schema for every fuzz run: a categorical attribute next to a bounded
/// numeric one, so the hybrid crawler's slice-engine frontier (the richest
/// codec) is what the seeds carry.
const SchemaPtr& FuzzSchema() {
  static const SchemaPtr schema = Schema::Make(
      {AttributeSpec::Categorical("make", 5),
       AttributeSpec::NumericBounded("price", 0, 1000)});
  return schema;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  std::shared_ptr<hdc::CrawlState> state;
  if (hdc::LoadCheckpoint(&in, FuzzSchema(), &state).ok()) {
    std::ostringstream out;
    (void)hdc::SaveCheckpoint(*state, *state->extracted.schema(), &out);
  }
  return 0;
}

#if !defined(HDC_HAVE_LIBFUZZER)

#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/crawlers.h"
#include "core/frontier_log.h"
#include "replay_driver.h"
#include "server/local_server.h"

namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteSeed(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Replaces the whole line that starts with `tag` (first occurrence).
std::string ReplaceLine(std::string text, const std::string& tag,
                        const std::string& line) {
  const size_t at = text.find("\n" + tag) + 1;
  return text.replace(at, text.find('\n', at) - at, line);
}

/// Seeds: a checkpoint and a short frontier log of the same budget-cut
/// hybrid crawl, the log in the wrapper older builds wrote, and the two
/// declared counts that once aborted the loader.
int Generate(const std::string& dir_arg) {
  const fs::path dir(dir_arg);
  fs::create_directories(dir);

  auto data = std::make_shared<hdc::Dataset>(FuzzSchema());
  for (hdc::Value i = 0; i < 80; ++i) {
    data->Add(hdc::Tuple({1 + (i * 7) % 5, (i * 37) % 1001}));
  }
  const std::string huge = "4611686018427387904";  // 2^62

  hdc::LocalServer server(data, /*k=*/8);
  hdc::HybridCrawler crawler;
  hdc::CrawlOptions options;
  options.max_queries = 6;
  hdc::CrawlResult partial = crawler.Crawl(&server, options);
  std::ostringstream checkpoint;
  if (partial.resume_state == nullptr ||
      !hdc::SaveCheckpoint(*partial.resume_state, *FuzzSchema(), &checkpoint)
           .ok()) {
    std::cerr << "crawl_state_fuzz: cannot checkpoint the seed crawl\n";
    return 1;
  }
  WriteSeed(dir / "checkpoint", checkpoint.str());
  WriteSeed(dir / "huge_seen",
            ReplaceLine(checkpoint.str(), "seen ", "seen " + huge + " 1"));

  const fs::path log_path = dir / "short_log";
  std::unique_ptr<hdc::FrontierLogWriter> log;
  hdc::FrontierLogOptions log_options;
  log_options.sync = false;
  if (!hdc::FrontierLogWriter::Open(log_path.string(), log_options, &log)
           .ok()) {
    return 1;
  }
  options.frontier_log = log.get();
  hdc::LocalServer log_server(data, /*k=*/8);
  hdc::HybridCrawler log_crawler;
  (void)log_crawler.Crawl(&log_server, options);
  log.reset();
  const std::string short_log = ReadFile(log_path);
  const std::string marker = "frontier-end\n";
  const size_t tail = short_log.find(marker) + marker.size();
  WriteSeed(dir / "legacy_log", "hdc-frontier-log 1\nsnapshot-begin\n" +
                                    short_log.substr(0, tail) +
                                    "snapshot-end\n" + short_log.substr(tail));
  WriteSeed(dir / "huge_extracted",
            ReplaceLine(short_log, "extracted ", "extracted " + huge));

  std::cout << "crawl_state_fuzz: wrote seed corpus to " << dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hdc::fuzz::RunDriver(argc, argv, "crawl_state_fuzz", Generate);
}

#endif  // !HDC_HAVE_LIBFUZZER
