#include "engines/chunk_stream.h"

#include "obs/metrics.h"
#include "sim/memory.h"

namespace bento::eng {

namespace {

/// Cut CSV text, charged to a pool until it is freed.
struct ChargedText {
  ChargedText(std::string t, std::shared_ptr<sim::MemoryPool::State> p)
      : text(std::move(t)), pool(std::move(p)) {}
  ~ChargedText() { pool->Release(text.size()); }
  ChargedText(const ChargedText&) = delete;
  ChargedText& operator=(const ChargedText&) = delete;

  std::string text;
  std::shared_ptr<sim::MemoryPool::State> pool;
};

}  // namespace

Result<col::TablePtr> PendingChunk::Decode() {
  // Both alternatives move out of the chunk: a map that drops its input
  // frees it, and the raw input goes as soon as its decode returns.
  if (!decode) return std::move(table);
  auto run = std::move(decode);
  decode = nullptr;
  return run();
}

Result<PendingChunk> ChunkStream::NextPending() {
  PendingChunk out;
  BENTO_ASSIGN_OR_RETURN(out.table, Next());
  if (out.table != nullptr) out.bytes = OwnedChunkBytes(out.table);
  return out;
}

Result<col::TablePtr> TableChunkStream::Next() {
  const int64_t total = table_->num_rows();
  if (position_ == 0 && chunk_rows_ >= total) {
    // One-shot stream: covers empty tables (a single zero-row chunk so the
    // schema still propagates downstream) and chunk sizes at or beyond the
    // table, where slicing would only add a needless view layer.
    position_ = total > 0 ? total : 1;
    return table_;
  }
  if (position_ >= total) return col::TablePtr(nullptr);
  const int64_t n = std::min(chunk_rows_, total - position_);
  BENTO_ASSIGN_OR_RETURN(auto chunk, table_->Slice(position_, n));
  position_ += n;
  return chunk;
}

Result<std::unique_ptr<CsvChunkStream>> CsvChunkStream::Open(
    const std::string& path, const io::CsvReadOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto reader, io::CsvChunkReader::Open(path, options));
  return std::unique_ptr<CsvChunkStream>(new CsvChunkStream(std::move(reader)));
}

Result<PendingChunk> CsvChunkStream::NextPending() {
  BENTO_ASSIGN_OR_RETURN(std::string text, reader_->Cut());
  PendingChunk out;
  if (text.empty()) return out;
  const std::shared_ptr<sim::MemoryPool::State>& pool =
      sim::MemoryPool::Current()->state();
  BENTO_RETURN_NOT_OK(pool->Reserve(text.size()));
  auto held = std::make_shared<const ChargedText>(std::move(text), pool);
  // Until a chunk has been decoded, take the text's size as the estimate.
  const uint64_t decoded = decoded_bytes_->load();
  out.bytes = held->text.size() + (decoded > 0 ? decoded : held->text.size());
  out.decode = [reader = std::shared_ptr<const io::CsvChunkReader>(reader_),
                held, decoded = decoded_bytes_]() -> Result<col::TablePtr> {
    BENTO_ASSIGN_OR_RETURN(col::TablePtr table, reader->Parse(held->text));
    decoded->store(OwnedChunkBytes(table));
    return table;
  };
  return out;
}

Result<std::unique_ptr<BcfChunkStream>> BcfChunkStream::Open(
    const std::string& path, std::vector<std::string> projection,
    std::vector<io::ScanPredicate> predicates,
    const io::BcfReadOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto reader, io::BcfReader::Open(path, options));
  return std::unique_ptr<BcfChunkStream>(new BcfChunkStream(
      std::move(reader), std::move(projection), std::move(predicates)));
}

Result<col::TablePtr> BcfChunkStream::Next() {
  static obs::Counter* groups_skipped =
      obs::MetricsRegistry::Global().counter("io.bcf.groups_skipped");
  while (group_ < reader_->num_row_groups()) {
    const int group = group_++;
    bool may_match = true;
    for (const io::ScanPredicate& pred : predicates_) {
      if (!reader_->GroupMayMatch(group, pred)) {
        may_match = false;
        break;
      }
    }
    if (!may_match) {
      groups_skipped->Increment();
      continue;
    }
    // Streaming consumes groups front to back; tell the kernel the pages
    // behind us are cold so an mmap'ed scan larger than RAM never pins more
    // than ~one group of page cache. No-op for buffered readers.
    if (last_delivered_ >= 0) reader_->DoneWithGroup(last_delivered_);
    last_delivered_ = group;
    delivered_any_ = true;
    return reader_->ReadRowGroup(group, projection_);
  }
  if (!delivered_any_) {
    // Every group was pruned (or the file is empty): emit one empty chunk so
    // downstream consumers still see the projected schema.
    delivered_any_ = true;
    std::vector<col::Field> fields;
    if (projection_.empty()) {
      fields = reader_->schema()->fields();
    } else {
      for (const std::string& name : projection_) {
        int c = reader_->schema()->IndexOf(name);
        if (c < 0) return Status::KeyError("no column named '", name, "'");
        fields.push_back(reader_->schema()->fields()[static_cast<size_t>(c)]);
      }
    }
    return col::Table::MakeEmpty(
        std::make_shared<col::Schema>(std::move(fields)));
  }
  return col::TablePtr(nullptr);
}

uint64_t OwnedChunkBytes(const col::TablePtr& t) {
  uint64_t total = 0;
  for (int c = 0; c < t->num_columns(); ++c) {
    const col::ArrayPtr& a = t->column(c);
    const int64_t n = a->length();
    total += static_cast<uint64_t>((n + 7) / 8);  // validity upper bound
    switch (a->type()) {
      case col::TypeId::kString: {
        const int64_t* off = a->offsets_data();
        total += static_cast<uint64_t>(n + 1) * 8 +
                 static_cast<uint64_t>(off[n] - off[0]);
        break;
      }
      case col::TypeId::kCategorical:
        total += static_cast<uint64_t>(n) * 4;
        break;
      default:
        total += static_cast<uint64_t>(n) *
                 static_cast<uint64_t>(col::ByteWidth(a->type()));
    }
  }
  return total;
}

}  // namespace bento::eng
