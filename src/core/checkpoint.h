// Copyright (c) hdc authors. Apache-2.0 license.
//
// Durable crawl state. A crawl interrupted by a query budget or a crash
// holds a resumable CrawlState (core/crawler.h); this module persists it as
// line-oriented text so the crawl can continue *in a different process* —
// e.g. a cron job spending one day's quota per run.
//
// One format serves both writers. A checkpoint is a snapshot; the
// write-ahead frontier log (core/frontier_log.h) is that same snapshot
// followed by one record per committed round. A checkpoint is therefore a
// frontier log with zero rounds, and LoadCheckpoint reads both:
//
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
//   round <seq>                    # zero or more round records:
//   queries <cumulative>
//   collected <cumulative>
//   seen <m> <row ids newly seen since the previous commit>
//   tuples <m>
//   <m tuple lines>
//   frontier keep <K> add <M>      # keep the first K frontier lines,
//   <M frontier lines>             # then append these M
//   commit <seq>
//
// Version 1 files (no `collected` line, schema names unescaped) still load;
// a v1 schema spec containing a backslash is rejected as ambiguous rather
// than guessed at, because it predates the util/string_escape.h convention.
// Frontier logs written before the two formats merged wrap the snapshot in
// a log header line plus snapshot-begin / snapshot-end lines; the loader
// accepts and skips that wrapper.
//
// A crash can only tear the last append, so a round record that fails on
// the final line of input is a torn tail and is discarded; one that fails
// on a line with more input after it is damage to a committed record, a
// typed error. Every decode error is typed and names the 1-based line it
// occurred on, and the output state is never assigned on failure — a
// truncated file can not produce a partially-populated CrawlState.
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
/// the exact line. Shared by the loader and every per-algorithm frontier
/// codec. `lines_before` numbers the first line read `lines_before + 1`.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream* in, uint64_t lines_before = 0)
      : in_(in), line_number_(lines_before) {}

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
  uint64_t line_number_;
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

/// Restores the state a checkpoint or frontier log records: the snapshot
/// plus every complete round record after it. `schema` must match the
/// recorded one exactly, or be *compatible* with it (same attributes,
/// kinds and categorical domains — numeric bounds may differ, see
/// Schema::CompatibleWith). The compatible case covers resuming a crawl
/// checkpointed under a narrowed session schema_override when the caller
/// holds only the service's full schema: the restored state is then bound
/// to the checkpoint's *recorded* schema, the space the crawl actually ran
/// in, so resume it against a session presenting that same view. To load
/// from a file, use ReplayFrontierLog (core/frontier_log.h).
Status LoadCheckpoint(std::istream* in, SchemaPtr schema,
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

/// Returns the rest of `line` after a "tag " prefix, or an error.
Status ExpectTagged(const std::string& line, const std::string& tag,
                    std::string* rest);

/// Writes `contents` to `path` crash-atomically: temp file in the same
/// directory, fsync, rename over the target, fsync the directory.
Status WriteFileDurably(const std::string& path, const std::string& contents);

}  // namespace hdc
