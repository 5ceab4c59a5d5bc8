// Copyright (c) hdc authors. Apache-2.0 license.
//
// hdc_crawl — command-line hidden-database crawler.
//
// Crawl one of the built-in paper workloads, or any CSV-backed hidden
// database, with any of the six algorithms; meter the crawl with a query
// budget; persist a checkpoint when the budget runs out and resume from it
// on the next invocation (a cron-able crawler).
//
//   # one-shot: crawl the Yahoo workload with the optimal algorithm
//   $ ./hdc_crawl --dataset=yahoo --k=256 --out=yahoo.csv
//
//   # budgeted + durable: run this daily until it reports "complete"
//   $ ./hdc_crawl --dataset=nsf --k=256 --budget=2000
//                 --checkpoint=nsf.ckpt --out=nsf.csv
//
//   # your own data behind a top-k form
//   $ ./hdc_crawl --csv=inventory.csv
//                 --schema="Make:cat:85, Price:num:200:200000" --k=100
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/crawlers.h"
#include "core/frontier_log.h"
#include "data/csv_reader.h"
#include "gen/adult_gen.h"
#include "gen/nsf_gen.h"
#include "gen/yahoo_gen.h"
#include "server/local_server.h"

namespace {

using namespace hdc;

struct Flags {
  std::string dataset;
  std::string csv;
  std::string schema_spec;
  std::string algo = "auto";
  std::string checkpoint;
  std::string out;
  uint64_t k = 256;
  uint64_t budget = UINT64_MAX;
  uint64_t seed = 0x5eed;
  uint64_t batch = 1;
  uint64_t parallel = 1;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "usage: hdc_crawl [--dataset=yahoo|nsf|adult|adult-numeric]\n"
      "                 [--csv=PATH --schema=SPEC]\n"
      "                 [--algo=auto|rank-shrink|binary-shrink|dfs|\n"
      "                         slice-cover|lazy-slice-cover|hybrid]\n"
      "                 [--k=N] [--budget=N] [--checkpoint=PATH]\n"
      "                 [--out=PATH] [--seed=N]\n"
      "                 [--batch=N] [--parallel=N]\n"
      "\n"
      "--batch issues up to N independent frontier items per server round\n"
      "trip (1 = the paper's sequential conversation; the query count is\n"
      "identical either way). --parallel lets the simulated server answer\n"
      "a batch with up to N worker threads.\n"
      "SPEC example: \"Make:cat:85, Price:num:200:200000, Mileage:num\"\n"
      "exit codes: 0 = crawl complete, 2 = budget exhausted (resumable),\n"
      "            1 = error\n");
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      flags->help = true;
    } else if (ParseFlag(arg, "dataset", &flags->dataset) ||
               ParseFlag(arg, "csv", &flags->csv) ||
               ParseFlag(arg, "schema", &flags->schema_spec) ||
               ParseFlag(arg, "algo", &flags->algo) ||
               ParseFlag(arg, "checkpoint", &flags->checkpoint) ||
               ParseFlag(arg, "out", &flags->out)) {
    } else if (ParseFlag(arg, "k", &value)) {
      flags->k = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "budget", &value)) {
      flags->budget = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seed", &value)) {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "batch", &value)) {
      flags->batch = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "parallel", &value)) {
      flags->parallel = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

Status BuildDataset(const Flags& flags, std::shared_ptr<Dataset>* out) {
  if (!flags.csv.empty()) {
    if (flags.schema_spec.empty()) {
      return Status::InvalidArgument("--csv requires --schema");
    }
    SchemaPtr schema;
    HDC_RETURN_IF_ERROR(ParseSchemaSpec(flags.schema_spec, &schema));
    auto dataset = std::make_shared<Dataset>(schema);
    HDC_RETURN_IF_ERROR(LoadCsv(flags.csv, schema, dataset.get()));
    *out = std::move(dataset);
    return Status::OK();
  }
  if (flags.dataset == "yahoo") {
    *out = std::make_shared<Dataset>(GenerateYahoo());
  } else if (flags.dataset == "nsf") {
    *out = std::make_shared<Dataset>(GenerateNsf());
  } else if (flags.dataset == "adult") {
    *out = std::make_shared<Dataset>(GenerateAdult());
  } else if (flags.dataset == "adult-numeric") {
    *out = std::make_shared<Dataset>(GenerateAdultNumeric());
  } else {
    return Status::InvalidArgument("pick --dataset or --csv (see --help)");
  }
  return Status::OK();
}

std::unique_ptr<Crawler> BuildCrawler(const std::string& algo,
                                      const Schema& schema) {
  if (algo == "auto") return MakeOptimalCrawler(schema);
  if (algo == "rank-shrink") return std::make_unique<RankShrink>();
  if (algo == "binary-shrink") return std::make_unique<BinaryShrink>();
  if (algo == "dfs") return std::make_unique<DfsCrawler>();
  if (algo == "slice-cover") {
    return std::make_unique<SliceCoverCrawler>(false);
  }
  if (algo == "lazy-slice-cover") {
    return std::make_unique<SliceCoverCrawler>(true);
  }
  if (algo == "hybrid") return std::make_unique<HybridCrawler>();
  return nullptr;
}

int Run(const Flags& flags) {
  std::shared_ptr<Dataset> dataset;
  Status s = BuildDataset(flags, &dataset);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("hidden database: n = %zu over [%s]\n", dataset->size(),
              dataset->schema()->ToString().c_str());

  LocalServerOptions server_options;
  server_options.max_parallelism =
      static_cast<unsigned>(flags.parallel > 0 ? flags.parallel : 1);
  LocalServer server(dataset, flags.k, MakeRandomPriorityPolicy(flags.seed),
                     server_options);
  if (!server.IsCrawlable()) {
    std::fprintf(stderr,
                 "error: a point holds more than k = %llu tuples; Problem 1 "
                 "is unsolvable (raise --k)\n",
                 static_cast<unsigned long long>(flags.k));
    return 1;
  }

  std::unique_ptr<Crawler> crawler =
      BuildCrawler(flags.algo, *dataset->schema());
  if (crawler == nullptr) {
    std::fprintf(stderr, "error: unknown --algo=%s\n", flags.algo.c_str());
    return 1;
  }
  std::printf("algorithm: %s, k = %llu\n", crawler->name().c_str(),
              static_cast<unsigned long long>(flags.k));

  CrawlOptions options;
  options.max_queries = flags.budget;
  options.batch_size =
      static_cast<uint32_t>(flags.batch > 0 ? flags.batch : 1);
  if (options.batch_size > 1) {
    std::printf("batched conversation: up to %u queries per round trip, "
                "server parallelism %u\n",
                options.batch_size, server_options.max_parallelism);
  }

  CrawlResult result(dataset->schema());
  const bool have_checkpoint =
      !flags.checkpoint.empty() && std::filesystem::exists(flags.checkpoint);
  if (have_checkpoint) {
    std::shared_ptr<CrawlState> state;
    s = ReplayFrontierLog(flags.checkpoint, dataset->schema(), &state);
    if (!s.ok()) {
      std::fprintf(stderr, "error loading checkpoint: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("resuming from %s (%llu queries already spent)\n",
                flags.checkpoint.c_str(),
                static_cast<unsigned long long>(state->queries_issued));
    result = crawler->Resume(&server, state, options);
  } else {
    result = crawler->Crawl(&server, options);
  }

  std::printf("queries issued (total): %llu\n",
              static_cast<unsigned long long>(result.queries_issued));
  std::printf("tuples extracted      : %zu / %zu\n", result.extracted.size(),
              dataset->size());

  if (result.status.IsResourceExhausted()) {
    if (flags.checkpoint.empty()) {
      std::fprintf(stderr,
                   "budget exhausted and no --checkpoint given; progress "
                   "lost\n");
      return 1;
    }
    s = SaveCheckpointFile(*result.resume_state, *dataset->schema(),
                           flags.checkpoint);
    if (!s.ok()) {
      std::fprintf(stderr, "error saving checkpoint: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("budget exhausted; checkpoint saved to %s — rerun to "
                "continue\n",
                flags.checkpoint.c_str());
    return 2;
  }
  if (!result.status.ok()) {
    std::fprintf(stderr, "crawl failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }

  const bool exact = Dataset::MultisetEquals(result.extracted, *dataset);
  std::printf("crawl complete; exact multiset: %s\n", exact ? "yes" : "NO");
  if (!flags.checkpoint.empty() &&
      std::filesystem::exists(flags.checkpoint)) {
    std::filesystem::remove(flags.checkpoint);
    std::printf("checkpoint %s removed\n", flags.checkpoint.c_str());
  }
  if (!flags.out.empty()) {
    s = result.extracted.SaveCsv(flags.out);
    if (!s.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", flags.out.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("extraction written to %s\n", flags.out.c_str());
  }
  return exact ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage();
    return 1;
  }
  if (flags.help) {
    PrintUsage();
    return 0;
  }
  return Run(flags);
}
