// Copyright (c) hdc authors. Apache-2.0 license.
//
// Durable crawl checkpoints. A crawl interrupted by a query budget holds a
// resumable CrawlState (core/crawler.h); this module persists that state to
// a line-oriented text file so the crawl can continue *in a different
// process* — e.g. a cron job spending one day's quota per run.
//
// Format (version 2):
//   hdc-checkpoint 2
//   algorithm <name>
//   schema <spec>                  # data/csv_reader.h spec syntax
//   queries <cumulative count>
//   seen <count> <row id>...
//   extracted <count>
//   <v1> <v2> ... one line per extracted tuple
//   collected <cumulative count>   # tuples delivered, incl. non-materialized
//   frontier-begin
//   ...algorithm-specific lines (CrawlState::EncodeFrontier)...
//   frontier-end
//
// Version 1 files (no `collected` line, schema names unescaped) still load;
// a v1 schema spec containing a backslash is rejected as ambiguous rather
// than guessed at, because it predates the util/string_escape.h convention.
//
// Every decode error is typed and names the 1-based line it occurred on, and
// the output state is never assigned on failure — a truncated file can not
// produce a partially-populated CrawlState.
//
// The per-query trace is not persisted (it is a measurement aid, not crawl
// state); a resumed crawl's trace starts at the resumption point.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/crawler.h"
#include "query/query.h"

namespace hdc {

/// Line reader that tracks 1-based line numbers so decode errors can name
/// the exact line. Shared by the checkpoint loader, every per-algorithm
/// frontier codec, and the frontier-log replayer.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream* in) : in_(in) {}

  /// Reads the next line, stripping a trailing CR. EOF is a typed error
  /// naming the missing line: inside a checkpoint, running out of input is
  /// always truncation.
  Status Next(std::string* line);

  /// Like Next but EOF is an expected outcome: returns false at end of
  /// input, true when a line was read.
  bool TryNext(std::string* line);

  /// True when no input follows the last line returned: it was the final
  /// line, with or without a terminating newline.
  bool AtEnd();

  /// Number of the last line returned (0 before the first read).
  uint64_t line_number() const { return line_number_; }

  /// InvalidArgument prefixed with "line <n>: " for the last line read.
  Status Error(const std::string& message) const;

 private:
  std::istream* in_;
  uint64_t line_number_ = 0;
};

/// Serializes `state` (validating it against `schema`).
Status SaveCheckpoint(const CrawlState& state, const Schema& schema,
                      std::ostream* out);

/// Crash-atomic file variant: the serialized checkpoint is written to a
/// temp file in the target's directory, fsync'd, then renamed over the
/// target — a crash mid-save always leaves either the old checkpoint or the
/// new one, never a torn file.
Status SaveCheckpointFile(const CrawlState& state, const Schema& schema,
                          const std::string& path);

/// Restores a checkpoint produced by SaveCheckpoint. `schema` must match
/// the recorded one exactly, or be *compatible* with it (same attributes,
/// kinds and categorical domains — numeric bounds may differ, see
/// Schema::CompatibleWith). The compatible case covers resuming a crawl
/// checkpointed under a narrowed session schema_override when the caller
/// holds only the service's full schema: the restored state is then bound
/// to the checkpoint's *recorded* schema, the space the crawl actually ran
/// in, so resume it against a session presenting that same view.
Status LoadCheckpoint(std::istream* in, SchemaPtr schema,
                      std::shared_ptr<CrawlState>* out);
Status LoadCheckpointFile(const std::string& path, SchemaPtr schema,
                          std::shared_ptr<CrawlState>* out);

// --- helpers shared by the per-algorithm frontier codecs ---------------

/// Writes the 2d extent values of `q` as space-separated tokens (no
/// newline).
void EncodeQueryTokens(const Query& q, std::ostream* out);

/// Reads 2d extent values from `in` into a query over `schema`.
Status DecodeQueryTokens(std::istream* in, const SchemaPtr& schema,
                         Query* out);

/// Writes one tuple's values as space-separated tokens (no newline).
void EncodeTupleTokens(const Tuple& t, std::ostream* out);

/// Reads `arity` values from `in`.
Status DecodeTupleTokens(std::istream* in, size_t arity, Tuple* out);

/// Decodes a frontier section consisting of "q <extents>" lines followed by
/// "frontier-end" — the codec shared by binary-shrink and rank-shrink.
Status DecodeQueryStackFrontier(CheckpointReader* in, const SchemaPtr& schema,
                                std::vector<Query>* frontier);

// --- building blocks shared with the frontier log (core/frontier_log.h) --

/// Returns the rest of `line` after a "tag " prefix, or an error.
Status ExpectTagged(const std::string& line, const std::string& tag,
                    std::string* rest);

/// Strict full-match decimal parse; a typed error on anything else (the
/// loader never throws on garbage counts).
Status ParseUint64Token(const std::string& s, uint64_t* out);

/// Fresh zero-progress CrawlState of the named crawler family, or an
/// InvalidArgument for an unknown algorithm. Used wherever serialized crawl
/// state is rebuilt (checkpoint load, frontier-log replay).
Status MakeCrawlStateForAlgorithm(const std::string& algorithm,
                                  const SchemaPtr& schema,
                                  std::shared_ptr<CrawlState>* out);

/// Writes `contents` to `path` crash-atomically: temp file in the same
/// directory, fsync, rename over the target, fsync the directory.
Status WriteFileDurably(const std::string& path, const std::string& contents);

}  // namespace hdc
