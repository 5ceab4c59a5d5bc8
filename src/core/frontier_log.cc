// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/frontier_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <utility>

#include "core/checkpoint.h"
#include "util/macros.h"

namespace hdc {
namespace {

constexpr const char* kLogMagic = "hdc-frontier-log";
constexpr int kLogVersion = 1;

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> EncodeFrontierLines(const CrawlState& state) {
  std::ostringstream out;
  state.EncodeFrontier(&out);
  return SplitLines(out.str());
}

}  // namespace

FrontierLogWriter::FrontierLogWriter(std::string path,
                                     FrontierLogOptions options)
    : path_(std::move(path)), options_(std::move(options)) {}

FrontierLogWriter::~FrontierLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FrontierLogWriter::Open(const std::string& path,
                               FrontierLogOptions options,
                               std::unique_ptr<FrontierLogWriter>* out) {
  if (path.empty() || out == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  out->reset(new FrontierLogWriter(path, std::move(options)));
  return Status::OK();
}

void FrontierLogWriter::NoteSeen(uint64_t row_id) {
  pending_seen_.push_back(row_id);
}

void FrontierLogWriter::NoteTuple(const Tuple& tuple) {
  std::ostringstream line;
  EncodeTupleTokens(tuple, &line);
  pending_tuples_.push_back(line.str());
}

Status FrontierLogWriter::WriteSnapshot(
    const CrawlState& state, std::vector<std::string> frontier_lines) {
  std::ostringstream out;
  out << kLogMagic << ' ' << kLogVersion << '\n';
  out << "snapshot-begin\n";
  HDC_RETURN_IF_ERROR(
      SaveCheckpoint(state, *state.extracted.schema(), &out));
  out << "snapshot-end\n";
  const std::string contents = out.str();
  HDC_RETURN_IF_ERROR(WriteFileDurably(path_, contents));

  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::Internal("cannot reopen frontier log for append: " +
                            path_);
  }
  bytes_ = contents.size();
  have_snapshot_ = true;
  ++seq_;
  last_queries_ = state.queries_issued;
  last_collected_ = state.tuples_collected;
  last_frontier_ = std::move(frontier_lines);
  return Status::OK();
}

Status FrontierLogWriter::AppendDurably(const std::string& record) {
  if (fd_ < 0) return Status::Internal("frontier log is not open: " + path_);
  size_t off = 0;
  while (off < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + off, record.size() - off);
    if (n < 0) return Status::Internal("frontier log write failed: " + path_);
    off += static_cast<size_t>(n);
  }
  if (options_.sync && ::fsync(fd_) != 0) {
    return Status::Internal("frontier log fsync failed: " + path_);
  }
  bytes_ += record.size();
  return Status::OK();
}

Status FrontierLogWriter::Commit(const CrawlState& state) {
  // A failed crawl is not a resume point; leave the last good commit.
  if (!state.fatal.ok()) return Status::OK();

  std::vector<std::string> frontier = EncodeFrontierLines(state);
  const bool dirty = !have_snapshot_ ||
                     state.queries_issued != last_queries_ ||
                     state.tuples_collected != last_collected_ ||
                     !pending_seen_.empty() || !pending_tuples_.empty() ||
                     frontier != last_frontier_;
  if (!dirty) return Status::OK();

  if (!have_snapshot_ || bytes_ >= options_.rotate_bytes) {
    HDC_RETURN_IF_ERROR(WriteSnapshot(state, std::move(frontier)));
  } else {
    ++seq_;
    std::ostringstream rec;
    rec << "round " << seq_ << '\n';
    rec << "queries " << state.queries_issued << '\n';
    rec << "collected " << state.tuples_collected << '\n';
    rec << "seen " << pending_seen_.size();
    for (uint64_t id : pending_seen_) rec << ' ' << id;
    rec << '\n';
    rec << "tuples " << pending_tuples_.size() << '\n';
    for (const std::string& line : pending_tuples_) rec << line << '\n';
    size_t keep = 0;
    while (keep < frontier.size() && keep < last_frontier_.size() &&
           frontier[keep] == last_frontier_[keep]) {
      ++keep;
    }
    rec << "frontier keep " << keep << " add " << (frontier.size() - keep)
        << '\n';
    for (size_t i = keep; i < frontier.size(); ++i) {
      rec << frontier[i] << '\n';
    }
    rec << "commit " << seq_ << '\n';
    HDC_RETURN_IF_ERROR(AppendDurably(rec.str()));
    last_queries_ = state.queries_issued;
    last_collected_ = state.tuples_collected;
    last_frontier_ = std::move(frontier);
  }
  pending_seen_.clear();
  pending_tuples_.clear();
  if (options_.on_commit) options_.on_commit(seq_);
  return Status::OK();
}

namespace {

/// The snapshot's checkpoint payload, exploded into the parts a round
/// record can modify. Tuples and frontier stay raw lines — replay is a line
/// edit, full validation happens once at the end via LoadCheckpoint.
struct ReplayImage {
  std::string algorithm;
  std::string schema_spec;
  uint64_t queries = 0;
  uint64_t collected = 0;
  std::vector<uint64_t> seen_ids;
  std::vector<std::string> tuple_lines;
  std::vector<std::string> frontier_lines;
};

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

/// Reads the next line as "seen <m> <m ids>", appending the ids to `ids`.
Status NextSeenIds(CheckpointReader* in, std::vector<uint64_t>* ids) {
  std::string rest;
  HDC_RETURN_IF_ERROR(NextTagged(in, "seen", &rest));
  std::istringstream tokens(rest);
  uint64_t count = 0;
  if (!(tokens >> count)) return in->Error("malformed seen line");
  ids->reserve(ids->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!(tokens >> id)) return in->Error("seen line truncated");
    ids->push_back(id);
  }
  return Status::OK();
}

Status ParseSnapshot(CheckpointReader* in, ReplayImage* image) {
  std::string line;

  HDC_RETURN_IF_ERROR(in->Next(&line));
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    header >> magic >> version;
    if (magic != "hdc-checkpoint" || version < 1) {
      return in->Error("snapshot is not an hdc checkpoint");
    }
  }

  HDC_RETURN_IF_ERROR(NextTagged(in, "algorithm", &image->algorithm));
  HDC_RETURN_IF_ERROR(NextTagged(in, "schema", &image->schema_spec));
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "queries", &image->queries));
  HDC_RETURN_IF_ERROR(NextSeenIds(in, &image->seen_ids));

  uint64_t tuple_count = 0;
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "extracted", &tuple_count));
  image->tuple_lines.reserve(tuple_count);
  for (uint64_t i = 0; i < tuple_count; ++i) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    image->tuple_lines.push_back(line);
  }
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "collected", &image->collected));

  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (line != "frontier-begin") {
    return in->Error("expected frontier-begin, got '" + line + "'");
  }
  while (true) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    if (line == "frontier-end") break;
    image->frontier_lines.push_back(line);
  }
  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (line != "snapshot-end") {
    return in->Error("expected snapshot-end, got '" + line + "'");
  }
  return Status::OK();
}

/// One parsed round record, staged until its commit line checks out.
struct RoundRecord {
  uint64_t seq = 0;
  uint64_t queries = 0;
  uint64_t collected = 0;
  std::vector<uint64_t> seen;
  std::vector<std::string> tuples;
  uint64_t keep = 0;
  std::vector<std::string> added;
};

/// Parses one complete round record. Any failure, running out of input
/// included, is an InvalidArgument naming the line.
Status ParseRound(CheckpointReader* in, size_t frontier_size,
                  RoundRecord* round) {
  std::string line;
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "round", &round->seq));
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "queries", &round->queries));
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "collected", &round->collected));
  HDC_RETURN_IF_ERROR(NextSeenIds(in, &round->seen));

  uint64_t tuple_count = 0;
  HDC_RETURN_IF_ERROR(NextTaggedCount(in, "tuples", &tuple_count));
  for (uint64_t i = 0; i < tuple_count; ++i) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    round->tuples.push_back(line);
  }

  HDC_RETURN_IF_ERROR(in->Next(&line));
  uint64_t add = 0;
  {
    std::istringstream tokens(line);
    std::string tag, keep_word, add_word;
    if (!(tokens >> tag >> keep_word >> round->keep >> add_word >> add) ||
        tag != "frontier" || keep_word != "keep" || add_word != "add" ||
        round->keep > frontier_size) {
      return in->Error("malformed frontier delta '" + line + "'");
    }
  }
  for (uint64_t i = 0; i < add; ++i) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    round->added.push_back(line);
  }

  const std::string commit = "commit " + std::to_string(round->seq);
  HDC_RETURN_IF_ERROR(in->Next(&line));
  if (line != commit) {
    return in->Error("expected '" + commit + "', got '" + line + "'");
  }
  return Status::OK();
}

/// Applies the next round record to `image`. Returns OK with
/// *applied=true on a complete record and OK with *applied=false at the
/// end of the log. A crash tears only the last append, so a record that
/// fails to parse on the final line of input — cut short, or with a
/// partial last line — is a torn tail and is discarded. A failure on a
/// line with more input after it cannot come from a crash, only from
/// damage to a committed record: that is the InvalidArgument naming the
/// line, never a silent stop.
Status ApplyRound(CheckpointReader* in, ReplayImage* image, bool* applied) {
  *applied = false;
  RoundRecord round;
  if (Status s = ParseRound(in, image->frontier_lines.size(), &round);
      !s.ok()) {
    return in->AtEnd() ? Status::OK() : s;
  }

  image->queries = round.queries;
  image->collected = round.collected;
  for (uint64_t id : round.seen) image->seen_ids.push_back(id);
  for (std::string& t : round.tuples) {
    image->tuple_lines.push_back(std::move(t));
  }
  image->frontier_lines.resize(round.keep);
  for (std::string& f : round.added) {
    image->frontier_lines.push_back(std::move(f));
  }
  *applied = true;
  return Status::OK();
}

}  // namespace

Status ReplayFrontierLog(const std::string& path, SchemaPtr schema,
                         std::shared_ptr<CrawlState>* out) {
  if (schema == nullptr || out == nullptr) {
    return Status::InvalidArgument("null argument");
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("no frontier log at " + path);
  }
  CheckpointReader reader(&in);

  std::string line;
  HDC_RETURN_IF_ERROR(reader.Next(&line));
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    header >> magic >> version;
    if (magic != kLogMagic) {
      return reader.Error("not an hdc frontier log");
    }
    if (version != kLogVersion) {
      return Status::NotSupported("unsupported frontier log version " +
                                  std::to_string(version));
    }
  }
  HDC_RETURN_IF_ERROR(reader.Next(&line));
  if (line != "snapshot-begin") {
    return reader.Error("expected snapshot-begin, got '" + line + "'");
  }

  ReplayImage image;
  HDC_RETURN_IF_ERROR(ParseSnapshot(&reader, &image));

  while (true) {
    bool applied = false;
    HDC_RETURN_IF_ERROR(ApplyRound(&reader, &image, &applied));
    if (!applied) break;
  }

  // Reassemble a checkpoint and run it through the full validation path.
  std::ostringstream text;
  text << "hdc-checkpoint 2\n";
  text << "algorithm " << image.algorithm << '\n';
  text << "schema " << image.schema_spec << '\n';
  text << "queries " << image.queries << '\n';
  text << "seen " << image.seen_ids.size();
  for (uint64_t id : image.seen_ids) text << ' ' << id;
  text << '\n';
  text << "extracted " << image.tuple_lines.size() << '\n';
  for (const std::string& t : image.tuple_lines) text << t << '\n';
  text << "collected " << image.collected << '\n';
  text << "frontier-begin\n";
  for (const std::string& f : image.frontier_lines) text << f << '\n';
  text << "frontier-end\n";

  std::istringstream replayed(text.str());
  if (Status s = LoadCheckpoint(&replayed, std::move(schema), out);
      !s.ok()) {
    return Status::InvalidArgument("frontier log replay of " + path + ": " +
                                   s.message());
  }
  return Status::OK();
}

}  // namespace hdc
