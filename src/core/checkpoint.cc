// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/binary_shrink.h"
#include "core/dfs_crawler.h"
#include "core/rank_shrink.h"
#include "core/slice_engine.h"
#include "data/csv_reader.h"
#include "util/macros.h"

namespace hdc {
namespace {

constexpr const char* kMagic = "hdc-checkpoint";
constexpr int kVersion = 2;

}  // namespace

Status CheckpointReader::Next(std::string* line) {
  if (!TryNext(line)) {
    return Status::InvalidArgument(
        "line " + std::to_string(line_number_ + 1) +
        ": checkpoint truncated (unexpected end of input)");
  }
  return Status::OK();
}

bool CheckpointReader::TryNext(std::string* line) {
  if (!std::getline(*in_, *line)) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  ++line_number_;
  return true;
}

bool CheckpointReader::AtEnd() {
  return in_->eof() || in_->peek() == std::istream::traits_type::eof();
}

Status CheckpointReader::Error(const std::string& message) const {
  return Status::InvalidArgument("line " + std::to_string(line_number_) +
                                 ": " + message);
}

Status ExpectTagged(const std::string& line, const std::string& tag,
                    std::string* rest) {
  if (line.rfind(tag + " ", 0) != 0) {
    return Status::InvalidArgument("expected '" + tag + " ...', got '" +
                                   line + "'");
  }
  *rest = line.substr(tag.size() + 1);
  return Status::OK();
}

Status ParseUint64Token(const std::string& s, uint64_t* out) {
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("malformed count '" + s + "'");
  }
  *out = v;
  return Status::OK();
}

Status MakeCrawlStateForAlgorithm(const std::string& algorithm,
                                  const SchemaPtr& schema,
                                  std::shared_ptr<CrawlState>* out) {
  if (algorithm == "binary-shrink") {
    *out = std::make_shared<BinaryShrinkState>(schema);
  } else if (algorithm == "rank-shrink") {
    *out = std::make_shared<RankShrinkState>(schema);
  } else if (algorithm == "dfs") {
    *out = std::make_shared<DfsState>(schema);
  } else if (algorithm == "slice-cover" || algorithm == "lazy-slice-cover" ||
             algorithm == "hybrid") {
    // The eager flag is restored by DecodeFrontier.
    *out = std::make_shared<SliceEngineState>(schema, algorithm,
                                              /*eager=*/false);
  } else {
    return Status::InvalidArgument("unknown algorithm '" + algorithm + "'");
  }
  return Status::OK();
}

Status WriteFileDurably(const std::string& path,
                        const std::string& contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open for writing: " + tmp);
  }
  size_t off = 0;
  while (off < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      ::close(fd);
      return Status::Internal("write failed: " + tmp);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) return Status::Internal("close failed: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  // Persist the rename itself: fsync the containing directory (best-effort
  // on filesystems that reject directory fds).
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

void EncodeQueryTokens(const Query& q, std::ostream* out) {
  for (size_t i = 0; i < q.num_attributes(); ++i) {
    if (i > 0) *out << ' ';
    *out << q.lo(i) << ' ' << q.hi(i);
  }
}

Status DecodeQueryTokens(std::istream* in, const SchemaPtr& schema,
                         Query* out) {
  Query q = Query::FullSpace(schema);
  for (size_t i = 0; i < schema->num_attributes(); ++i) {
    Value lo, hi;
    if (!(*in >> lo >> hi)) {
      return Status::InvalidArgument("malformed query extents");
    }
    if (schema->IsCategorical(i)) {
      const Value domain = static_cast<Value>(schema->domain_size(i));
      if (lo == hi) {
        if (lo < 1 || lo > domain) {
          return Status::InvalidArgument("categorical value out of domain");
        }
        q = q.WithCategoricalEquals(i, lo);
      } else if (lo != 1 || hi != domain) {
        return Status::InvalidArgument(
            "categorical extent must be pinned or the full domain");
      }
    } else {
      if (lo > hi) return Status::InvalidArgument("extent out of order");
      q = q.WithNumericRange(i, lo, hi);
    }
  }
  *out = std::move(q);
  return Status::OK();
}

void EncodeTupleTokens(const Tuple& t, std::ostream* out) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) *out << ' ';
    *out << t[i];
  }
}

Status DecodeTupleTokens(std::istream* in, size_t arity, Tuple* out) {
  std::vector<Value> values(arity);
  for (auto& v : values) {
    if (!(*in >> v)) return Status::InvalidArgument("malformed tuple");
  }
  *out = Tuple(std::move(values));
  return Status::OK();
}

Status DecodeQueryStackFrontier(CheckpointReader* in, const SchemaPtr& schema,
                                std::vector<Query>* frontier) {
  frontier->clear();
  std::string line;
  while (true) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    if (line == "frontier-end") return Status::OK();
    std::string rest;
    if (Status s = ExpectTagged(line, "q", &rest); !s.ok()) {
      return in->Error(s.message());
    }
    std::istringstream tokens(rest);
    Query q = Query::FullSpace(schema);
    if (Status s = DecodeQueryTokens(&tokens, schema, &q); !s.ok()) {
      return in->Error(s.message());
    }
    frontier->push_back(std::move(q));
  }
}

Status SaveCheckpoint(const CrawlState& state, const Schema& schema,
                      std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  if (!state.fatal.ok()) {
    return Status::FailedPrecondition(
        "refusing to checkpoint a failed crawl: " + state.fatal.ToString());
  }
  if (!(*state.extracted.schema() == schema)) {
    return Status::InvalidArgument("state does not belong to this schema");
  }

  *out << kMagic << ' ' << kVersion << '\n';
  *out << "algorithm " << state.algorithm() << '\n';
  *out << "schema " << FormatSchemaSpec(schema) << '\n';
  *out << "queries " << state.queries_issued << '\n';

  *out << "seen " << state.seen_rows.size();
  for (uint64_t id : state.seen_rows) *out << ' ' << id;
  *out << '\n';

  *out << "extracted " << state.extracted.size() << '\n';
  for (const Tuple& t : state.extracted.tuples()) {
    EncodeTupleTokens(t, out);
    *out << '\n';
  }
  *out << "collected " << state.tuples_collected << '\n';

  *out << "frontier-begin\n";
  state.EncodeFrontier(out);
  *out << "frontier-end\n";
  if (!*out) return Status::Internal("checkpoint write failed");
  return Status::OK();
}

Status SaveCheckpointFile(const CrawlState& state, const Schema& schema,
                          const std::string& path) {
  std::ostringstream out;
  HDC_RETURN_IF_ERROR(SaveCheckpoint(state, schema, &out));
  return WriteFileDurably(path, out.str());
}

Status LoadCheckpoint(std::istream* in, SchemaPtr schema,
                      std::shared_ptr<CrawlState>* out) {
  if (in == nullptr || schema == nullptr || out == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  CheckpointReader reader(in);
  std::string line, rest;

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  int version = 0;
  {
    std::istringstream header(line);
    std::string magic;
    header >> magic >> version;
    if (magic != kMagic) {
      return reader.Error("not an hdc checkpoint");
    }
    if (version < 1 || version > kVersion) {
      return Status::NotSupported("unsupported checkpoint version " +
                                  std::to_string(version));
    }
  }

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (Status s = ExpectTagged(line, "algorithm", &rest); !s.ok()) {
    return reader.Error(s.message());
  }
  const std::string algorithm = rest;

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (Status s = ExpectTagged(line, "schema", &rest); !s.ok()) {
    return reader.Error(s.message());
  }
  if (version < 2 && rest.find('\\') != std::string::npos) {
    // Version 1 predates token escaping: a backslash in its schema spec
    // could be either a literal character or an (impossible then) escape.
    // Refuse to guess.
    return reader.Error(
        "ambiguous legacy checkpoint: version-1 schema spec contains a "
        "backslash, which predates token escaping — re-save the checkpoint "
        "with a current build");
  }
  if (rest != FormatSchemaSpec(*schema)) {
    // Not the exact schema — accept a *compatible* recorded one (same
    // attributes, kinds and categorical domains; numeric bounds may
    // differ). This is the session-resume case: a crawl checkpointed under
    // a narrowed schema_override (e.g. bounds tightened by domain
    // discovery) must be restorable when the caller only holds the
    // service's full schema. The state is rebuilt against the *recorded*
    // schema — the frontier's extents and the partial extraction only make
    // sense in the space the crawl actually ran in.
    SchemaPtr recorded;
    Status parsed = ParseSchemaSpec(rest, &recorded);
    if (!parsed.ok() || !recorded->CompatibleWith(*schema)) {
      return reader.Error(
          "checkpoint was taken against an incompatible schema: " + rest);
    }
    schema = std::move(recorded);
  }

  std::shared_ptr<CrawlState> state;
  if (Status s = MakeCrawlStateForAlgorithm(algorithm, schema, &state);
      !s.ok()) {
    return reader.Error(s.message());
  }

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (Status s = ExpectTagged(line, "queries", &rest); !s.ok()) {
    return reader.Error(s.message());
  }
  if (Status s = ParseUint64Token(rest, &state->queries_issued); !s.ok()) {
    return reader.Error(s.message());
  }

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (Status s = ExpectTagged(line, "seen", &rest); !s.ok()) {
    return reader.Error(s.message());
  }
  {
    std::istringstream tokens(rest);
    uint64_t count = 0;
    if (!(tokens >> count)) {
      return reader.Error("malformed seen line");
    }
    state->seen_rows.reserve(count * 2);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t id;
      if (!(tokens >> id)) {
        return reader.Error("seen line truncated: expected " +
                            std::to_string(count) + " row ids");
      }
      state->seen_rows.insert(id);
    }
  }

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (Status s = ExpectTagged(line, "extracted", &rest); !s.ok()) {
    return reader.Error(s.message());
  }
  uint64_t extracted_count = 0;
  if (Status s = ParseUint64Token(rest, &extracted_count); !s.ok()) {
    return reader.Error(s.message());
  }
  const size_t arity = schema->num_attributes();
  for (uint64_t i = 0; i < extracted_count; ++i) {
    HDC_RETURN_IF_ERROR(reader.Next(&line));
    std::istringstream tokens(line);
    Tuple t;
    if (Status s = DecodeTupleTokens(&tokens, arity, &t); !s.ok()) {
      return reader.Error("tuple " + std::to_string(i + 1) + " of " +
                          std::to_string(extracted_count) + ": " +
                          s.message());
    }
    state->extracted.AddUnchecked(std::move(t));
  }
  HDC_RETURN_IF_ERROR(state->extracted.Validate());
  state->tuples_collected = extracted_count;

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (version >= 2) {
    if (Status s = ExpectTagged(line, "collected", &rest); !s.ok()) {
      return reader.Error(s.message());
    }
    if (Status s = ParseUint64Token(rest, &state->tuples_collected);
        !s.ok()) {
      return reader.Error(s.message());
    }
    HDC_RETURN_IF_ERROR(reader.Next(&line));
  }
  if (line != "frontier-begin") {
    return reader.Error("expected frontier-begin, got '" + line + "'");
  }
  HDC_RETURN_IF_ERROR(state->DecodeFrontier(&reader));

  *out = std::move(state);
  return Status::OK();
}

Status LoadCheckpointFile(const std::string& path, SchemaPtr schema,
                          std::shared_ptr<CrawlState>* out) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  return LoadCheckpoint(&in, std::move(schema), out);
}

}  // namespace hdc
