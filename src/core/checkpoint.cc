// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

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

namespace {

/// Strict full-match decimal parse; a typed error on anything else (the
/// loader never throws on garbage counts).
Status ParseUint64Token(const std::string& s, uint64_t* out) {
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || ptr != s.data() + s.size()) {
    return Status::InvalidArgument("malformed count '" + s + "'");
  }
  *out = v;
  return Status::OK();
}

/// Fresh zero-progress CrawlState of the named crawler family, or an
/// InvalidArgument for an unknown algorithm.
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

/// Reads the next line as "<tag> <rest>".
Status NextTagged(CheckpointReader* in, const std::string& tag,
                  std::string* rest) {
  std::string line;
  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (Status s = ExpectTagged(line, tag, rest); !s.ok()) {
    return in->Error(s.message());
  }
  return Status::OK();
}

/// Reads the next line as "<tag> <count>".
Status NextTaggedCount(CheckpointReader* in, const std::string& tag,
                       uint64_t* count) {
  std::string rest;
  HDC_RETURN_IF_ERROR(NextTagged(in, tag, &rest));
  if (Status s = ParseUint64Token(rest, count); !s.ok()) {
    return in->Error(s.message());
  }
  return Status::OK();
}

/// Parses the next space-separated decimal token of `*text`, consuming it;
/// false when no token is left or it is malformed.
template <typename T>
bool NextNumber(std::string_view* text, T* out) {
  const size_t start = text->find_first_not_of(' ');
  if (start == std::string_view::npos) return false;
  const char* end = text->data() + text->size();
  auto [ptr, ec] = std::from_chars(text->data() + start, end, *out);
  if (ec != std::errc()) return false;
  text->remove_prefix(static_cast<size_t>(ptr - text->data()));
  return true;
}

/// Reads the next line as "seen <m> <m ids>", appending the ids to `ids`.
/// The declared count is never trusted for an allocation: a count larger
/// than the ids on the line fails at the first missing one.
Status NextSeenIds(CheckpointReader* in, std::vector<uint64_t>* ids) {
  std::string rest;
  HDC_RETURN_IF_ERROR(NextTagged(in, "seen", &rest));
  std::string_view tokens(rest);
  uint64_t count = 0;
  if (!NextNumber(&tokens, &count)) return in->Error("malformed seen line");
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!NextNumber(&tokens, &id)) {
      return in->Error("seen line truncated: expected " +
                       std::to_string(count) + " row ids");
    }
    ids->push_back(id);
  }
  return Status::OK();
}

/// Reads tuple line `i` of `count`.
Status NextTuple(CheckpointReader* in, size_t arity, uint64_t i,
                 uint64_t count, Tuple* out) {
  std::string line;
  HDC_RETURN_IF_ERROR(in->Next(&line));
  std::string_view tokens(line);
  std::vector<Value> values(arity);
  for (Value& v : values) {
    if (!NextNumber(&tokens, &v)) {
      return in->Error("tuple " + std::to_string(i + 1) + " of " +
                       std::to_string(count) + ": malformed tuple");
    }
  }
  *out = Tuple(std::move(values));
  return Status::OK();
}

/// One round record, staged until its commit line checks out.
struct RoundRecord {
  uint64_t queries = 0;
  uint64_t collected = 0;
  std::vector<uint64_t> seen;
  std::vector<Tuple> tuples;
  uint64_t keep = 0;
  std::vector<std::string> added;
};

/// Parses one complete round record. Any failure, running out of input
/// included, is an InvalidArgument naming the line.
Status ParseRound(CheckpointReader* in, size_t arity, size_t frontier_size,
                  RoundRecord* round) {
  uint64_t seq = 0;
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "round", &seq));
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "queries", &round->queries));
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "collected", &round->collected));
  HDC_RETURN_IF_ERROR(NextSeenIds(in, &round->seen));
  uint64_t tuple_count = 0;
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "tuples", &tuple_count));
  for (uint64_t i = 0; i < tuple_count; ++i) {
    Tuple t;
    HDC_RETURN_IF_ERROR(NextTuple(in, arity, i, tuple_count, &t));
    round->tuples.push_back(std::move(t));
  }

  std::string rest;
  HDC_RETURN_IF_ERROR(NextTagged(in, "frontier keep", &rest));
  const std::string add_word = " add ";
  const size_t split = rest.find(add_word);
  uint64_t add = 0;
  if (split == std::string::npos ||
      !ParseUint64Token(rest.substr(0, split), &round->keep).ok() ||
      !ParseUint64Token(rest.substr(split + add_word.size()), &add).ok() ||
      round->keep > frontier_size) {
    return in->Error("malformed frontier delta 'frontier keep " + rest + "'");
  }
  std::string line;
  for (uint64_t i = 0; i < add; ++i) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    round->added.push_back(line);
  }

  const std::string commit = "commit " + std::to_string(seq);
  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (line != commit) {
    return in->Error("expected '" + commit + "', got '" + line + "'");
  }
  return Status::OK();
}

}  // namespace

Status LoadCheckpoint(std::istream* in, SchemaPtr schema,
                      std::shared_ptr<CrawlState>* out) {
  if (in == nullptr || schema == nullptr || out == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  CheckpointReader reader(in);
  std::string line, rest;

  HDC_RETURN_IF_ERROR(reader.Next(&line));
  // Frontier logs written before checkpoints and logs shared one format
  // wrap the snapshot; skip the wrapper and read the rest unchanged.
  const bool legacy_log = line.rfind("hdc-frontier-log ", 0) == 0;
  if (legacy_log) {
    if (line != "hdc-frontier-log 1") {
      return Status::NotSupported("unsupported frontier log version '" +
                                  line + "'");
    }
    HDC_RETURN_IF_ERROR(reader.Next(&line));
    if (line != "snapshot-begin") {
      return reader.Error("expected snapshot-begin, got '" + line + "'");
    }
    HDC_RETURN_IF_ERROR(reader.Next(&line));
  }
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

  std::string algorithm;
  HDC_RETURN_IF_ERROR(NextTagged(&reader, "algorithm", &algorithm));
  HDC_RETURN_IF_ERROR(NextTagged(&reader, "schema", &rest));
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

  HDC_RETURN_IF_ERROR(
      NextTaggedCount(&reader, "queries", &state->queries_issued));
  std::vector<uint64_t> seen;
  HDC_RETURN_IF_ERROR(NextSeenIds(&reader, &seen));
  state->seen_rows.insert(seen.begin(), seen.end());
  uint64_t extracted_count = 0;
  HDC_RETURN_IF_ERROR(NextTaggedCount(&reader, "extracted", &extracted_count));
  const size_t arity = schema->num_attributes();
  for (uint64_t i = 0; i < extracted_count; ++i) {
    Tuple t;
    HDC_RETURN_IF_ERROR(NextTuple(&reader, arity, i, extracted_count, &t));
    state->extracted.AddUnchecked(std::move(t));
  }
  state->tuples_collected = extracted_count;
  if (version >= 2) {
    HDC_RETURN_IF_ERROR(
        NextTaggedCount(&reader, "collected", &state->tuples_collected));
  }

  // The frontier stays raw lines until every round's keep/add edit is in.
  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (line != "frontier-begin") {
    return reader.Error("expected frontier-begin, got '" + line + "'");
  }
  const uint64_t frontier_begin = reader.line_number();
  std::vector<std::string> frontier;
  while (true) {
    HDC_RETURN_IF_ERROR(reader.Next(&line));
    if (line == "frontier-end") break;
    frontier.push_back(line);
  }
  if (legacy_log) {
    HDC_RETURN_IF_ERROR(reader.Next(&line));
    if (line != "snapshot-end") {
      return reader.Error("expected snapshot-end, got '" + line + "'");
    }
  }

  // A crash tears only the last append, so a record that fails on the
  // final line of input — cut short, or with a partial last line — is a
  // torn tail and is dropped. A failure with more input after it is damage
  // to a committed record: the InvalidArgument naming the line.
  uint64_t rounds = 0;
  while (!reader.AtEnd()) {
    RoundRecord round;
    if (Status s = ParseRound(&reader, arity, frontier.size(), &round);
        !s.ok()) {
      if (reader.AtEnd()) break;
      return s;
    }
    state->queries_issued = round.queries;
    state->tuples_collected = round.collected;
    state->seen_rows.insert(round.seen.begin(), round.seen.end());
    for (Tuple& t : round.tuples) state->extracted.AddUnchecked(std::move(t));
    frontier.resize(round.keep);
    for (std::string& f : round.added) frontier.push_back(std::move(f));
    ++rounds;
  }
  HDC_RETURN_IF_ERROR(state->extracted.Validate());

  std::string frontier_text;
  for (const std::string& f : frontier) frontier_text.append(f) += '\n';
  frontier_text += "frontier-end\n";
  std::istringstream frontier_in(frontier_text);
  // Without round records the frontier lines are the file's own, so errors
  // name the file's line; after edits they count from the first frontier
  // line.
  CheckpointReader frontier_reader(&frontier_in,
                                   rounds == 0 ? frontier_begin : 0);
  if (Status s = state->DecodeFrontier(&frontier_reader); !s.ok()) {
    if (rounds == 0) return s;
    return Status::InvalidArgument("frontier rebuilt from round records: " +
                                   s.message());
  }

  *out = std::move(state);
  return Status::OK();
}

}  // namespace hdc
