#ifndef BENTO_IO_CSV_H_
#define BENTO_IO_CSV_H_

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/table.h"
#include "sim/parallel.h"

namespace bento::io {

struct CsvReadOptions {
  bool has_header = true;
  char delimiter = ',';
  /// Literals decoded as null (checked before type parsing).
  std::vector<std::string> null_literals = {"", "NA", "null", "NaN"};
  /// Rows examined for type inference.
  int64_t infer_rows = 1024;
  /// Batch size of the streaming chunk reader.
  int64_t chunk_rows = 64 * 1024;
  /// Explicit schema; skips inference when set. Column count must match.
  col::SchemaPtr schema;
  /// Columns to skip at parse time (scan-level projection pushdown): dropped
  /// fields are split but never type-decoded or materialized, and the result
  /// schema omits them. Unknown names are a KeyError, matching frame Drop.
  std::vector<std::string> drop_columns;
  /// Decode string columns as dictionary-encoded categoricals (int32 codes +
  /// shared dictionary, interned at parse time). Applies to inferred string
  /// columns; an explicit schema can request it per column with
  /// TypeId::kCategorical. Chunk-parallel reads build per-chunk dictionaries
  /// that ConcatTables unifies by value.
  bool dictionary_encode_strings = false;
};

struct CsvWriteOptions {
  bool header = true;
  char delimiter = ',';
};

/// \brief Buffered whole-file CSV read with type inference
/// (int64 -> float64 -> bool -> string, the Pandas-like ladder).
/// Values that fail the inferred type parse after the inference window
/// decode as null.
Result<col::TablePtr> ReadCsv(const std::string& path,
                              const CsvReadOptions& options = {});

/// \brief Memory-mapped CSV read with chunk-parallel parsing: the file is
/// split at record boundaries (found with CsvRecordScanner, so quoted
/// newlines never split a record) and chunks parse through
/// sim::ParallelFor — the DataTable model the paper credits for its I/O
/// wins.
Result<col::TablePtr> ReadCsvMmap(const std::string& path,
                                  const CsvReadOptions& options = {},
                                  const sim::ParallelOptions& parallel = {});

/// \brief The one definition of a CSV record, shared by every reader.
///
/// A line runs to the next '\n' outside quotes (every '"' toggles quoting).
/// A record is a line that is non-empty once one trailing '\r' is dropped:
/// blank lines, "\r"-only ones included, are not records. The scanner is
/// resumable. It keeps its position and quote state between calls, so a
/// buffer that grows at the end is scanned once however it arrives.
class CsvRecordScanner {
 public:
  /// Next complete line of `text`, without its '\n'; false when `text` holds
  /// no further unquoted '\n'. `text` may only have grown at the end (or
  /// lost a prefix through Drop) since the previous call.
  bool NextLine(std::string_view text, std::string_view* line);

  /// Offset one past the last line returned: where the next line starts.
  size_t line_start() const { return line_start_; }

  /// Rebases offsets after the first `n` bytes (n <= line_start()) were
  /// erased from the buffer.
  void Drop(size_t n);

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t pos_ = 0;          // first byte not yet scanned
  size_t line_start_ = 0;
  size_t newline_ = kNone;  // next '\n' at or after pos_, when known
  bool in_quotes_ = false;
};

/// \brief Streaming reader producing `chunk_rows`-row batches; the input of
/// the streaming engines (Polars lazy streaming, Vaex, Spark whole-stage).
///
/// Reading a chunk is two steps. Cut() is the serial one: a single
/// quote-aware scan cuts the next `chunk_rows` records as raw text. Parse()
/// decodes that text; it is const and thread-safe, so pipelined consumers
/// run it on their worker threads. Next() is Cut() then Parse().
class CsvChunkReader {
 public:
  static Result<std::unique_ptr<CsvChunkReader>> Open(
      const std::string& path, const CsvReadOptions& options = {});

  ~CsvChunkReader();
  CsvChunkReader(const CsvChunkReader&) = delete;
  CsvChunkReader& operator=(const CsvChunkReader&) = delete;

  const col::SchemaPtr& schema() const { return schema_; }

  /// Next batch, or nullptr at end of file.
  Result<col::TablePtr> Next();

  /// Raw text of the next `chunk_rows` records (fewer only in the last
  /// chunk, which also takes a final record without a trailing newline);
  /// empty at end of file.
  Result<std::string> Cut();

  /// Decodes text returned by Cut(). Safe to call from any thread,
  /// concurrently with Cut() and with other Parse() calls.
  Result<col::TablePtr> Parse(std::string_view text) const;

 private:
  CsvChunkReader() = default;

  /// Appends the next block of the file to buffer_, first dropping the text
  /// already cut.
  Status ReadBlock();

  std::FILE* file_ = nullptr;
  CsvReadOptions options_;
  col::SchemaPtr schema_;
  /// Kept-column -> raw-field index when drop_columns is set (else empty).
  std::vector<size_t> field_map_;
  std::string buffer_;  // file text read but not yet cut, from head_ on
  size_t head_ = 0;
  CsvRecordScanner scanner_;  // over buffer_, from head_
  int64_t scanned_records_ = 0;  // records in [head_, scanner_.line_start())
  bool eof_ = false;
};

/// \brief Writes `table` as CSV; strings quote when they contain the
/// delimiter, quotes, or newlines.
Status WriteCsv(const col::TablePtr& table, const std::string& path,
                const CsvWriteOptions& options = {});

/// \brief Chunk-parallel stringification (through sim::ParallelFor) with a
/// serial ordered write — the multithreaded writers' shape.
Status WriteCsvParallel(const col::TablePtr& table, const std::string& path,
                        const CsvWriteOptions& options = {},
                        const sim::ParallelOptions& parallel = {});

}  // namespace bento::io

#endif  // BENTO_IO_CSV_H_
