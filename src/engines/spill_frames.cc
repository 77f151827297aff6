#include "engines/spill_frames.h"

#include <cstring>

#include "columnar/bitmap.h"
#include "io/encoding.h"
#include "obs/metrics.h"

namespace bento::eng {

namespace {

/// Fixed-size per-column frame header. Plain-old bytes so a frame is one
/// contiguous Write: header block, then each column's validity bitmap and
/// encoded value page back to back.
struct ColumnHeader {
  uint8_t type = 0;
  uint8_t encoding = 0;
  int64_t null_count = 0;
  uint64_t validity_size = 0;
  uint64_t data_size = 0;
};

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &v, 8);
}

Status GetU64(const std::vector<uint8_t>& buf, size_t* pos, uint64_t* out) {
  if (*pos + 8 > buf.size()) return Status::IOError("truncated spill frame");
  std::memcpy(out, buf.data() + *pos, 8);
  *pos += 8;
  return Status::OK();
}

}  // namespace

class SpillFrameStore::PartitionStream : public ChunkStream {
 public:
  PartitionStream(SpillFrameStore* store, int partition)
      : store_(store), partition_(partition) {}

  Result<col::TablePtr> Next() override {
    const Partition& part =
        store_->parts_[static_cast<size_t>(partition_)];
    if (index_ >= part.frames.size()) {
      if (index_ == 0 && part.schema != nullptr) {
        // Schema known but no frames: one empty chunk, like TableChunkStream.
        ++index_;
        return col::Table::MakeEmpty(part.schema);
      }
      return col::TablePtr(nullptr);
    }
    return store_->ReadFrame(part, part.frames[index_++]);
  }

 private:
  SpillFrameStore* store_;
  int partition_;
  size_t index_ = 0;
};

Result<std::unique_ptr<SpillFrameStore>> SpillFrameStore::Create(
    int partitions) {
  if (partitions < 0) return Status::Invalid("negative partition count");
  BENTO_ASSIGN_OR_RETURN(auto file, sim::SpillFile::Create());
  auto store =
      std::unique_ptr<SpillFrameStore>(new SpillFrameStore(std::move(file)));
  store->parts_.resize(static_cast<size_t>(partitions));
  return store;
}

Status SpillFrameStore::Append(int partition, const col::TablePtr& chunk) {
  if (partition < 0 || partition >= partitions()) {
    return Status::IndexError("spill partition ", partition, " out of range");
  }
  Partition& part = parts_[static_cast<size_t>(partition)];
  if (part.schema == nullptr) {
    part.schema = chunk->schema();
  } else if (!(*part.schema == *chunk->schema())) {
    return Status::Invalid("spill partition schema mismatch");
  }
  if (chunk->num_rows() == 0) return Status::OK();

  // Encode every column first so the header block can lead the frame.
  std::vector<ColumnHeader> headers;
  std::vector<col::BufferPtr> validities;
  std::vector<std::vector<uint8_t>> pages;
  for (int c = 0; c < chunk->num_columns(); ++c) {
    const col::ArrayPtr& column = chunk->column(c);
    ColumnHeader h;
    h.type = static_cast<uint8_t>(column->type());
    h.null_count = column->null_count();
    col::BufferPtr bits;
    if (h.null_count > 0) {
      // Repack so the frame is self-contained (slices may be bit-offset).
      BENTO_ASSIGN_OR_RETURN(bits,
                             col::AllocateBitmap(column->length(), false));
      for (int64_t i = 0; i < column->length(); ++i) {
        if (column->IsValid(i)) col::SetBit(bits->mutable_data(), i);
      }
      h.validity_size = bits->size();
    }
    // Frames live for one operator: the in-memory layout, no codec trial.
    const io::Encoding enc = io::MappableEncoding(column);
    h.encoding = static_cast<uint8_t>(enc);
    BENTO_ASSIGN_OR_RETURN(auto page, io::EncodeArray(column, enc));
    h.data_size = page.size();
    headers.push_back(h);
    validities.push_back(std::move(bits));
    pages.push_back(std::move(page));
  }

  std::vector<uint8_t> frame;
  PutU64(static_cast<uint64_t>(chunk->num_columns()), &frame);
  PutU64(static_cast<uint64_t>(chunk->num_rows()), &frame);
  for (const ColumnHeader& h : headers) {
    frame.push_back(h.type);
    frame.push_back(h.encoding);
    PutU64(static_cast<uint64_t>(h.null_count), &frame);
    PutU64(h.validity_size, &frame);
    PutU64(h.data_size, &frame);
  }
  for (size_t c = 0; c < headers.size(); ++c) {
    if (validities[c] != nullptr) {
      frame.insert(frame.end(), validities[c]->data(),
                   validities[c]->data() + validities[c]->size());
    }
    frame.insert(frame.end(), pages[c].begin(), pages[c].end());
  }

  BENTO_ASSIGN_OR_RETURN(uint64_t offset,
                         file_->Write(frame.data(), frame.size()));
  static obs::Counter* frames =
      obs::MetricsRegistry::Global().counter("spill.frames");
  frames->Increment();
  part.frames.push_back(FrameRef{offset, frame.size(), chunk->num_rows()});
  part.rows += chunk->num_rows();
  return Status::OK();
}

Result<col::TablePtr> SpillFrameStore::ReadFrame(const Partition& part,
                                                 const FrameRef& ref) {
  std::vector<uint8_t> frame(ref.size);
  BENTO_RETURN_NOT_OK(file_->Read(ref.offset, ref.size, frame.data()));

  size_t pos = 0;
  uint64_t n_cols = 0, n_rows = 0;
  BENTO_RETURN_NOT_OK(GetU64(frame, &pos, &n_cols));
  BENTO_RETURN_NOT_OK(GetU64(frame, &pos, &n_rows));
  if (n_cols != static_cast<uint64_t>(part.schema->num_fields()) ||
      n_rows != static_cast<uint64_t>(ref.rows)) {
    return Status::IOError("corrupt spill frame header");
  }
  std::vector<ColumnHeader> headers(n_cols);
  for (ColumnHeader& h : headers) {
    if (pos + 2 > frame.size()) return Status::IOError("truncated spill frame");
    h.type = frame[pos++];
    h.encoding = frame[pos++];
    uint64_t nc = 0;
    BENTO_RETURN_NOT_OK(GetU64(frame, &pos, &nc));
    h.null_count = static_cast<int64_t>(nc);
    BENTO_RETURN_NOT_OK(GetU64(frame, &pos, &h.validity_size));
    BENTO_RETURN_NOT_OK(GetU64(frame, &pos, &h.data_size));
  }

  std::vector<col::ArrayPtr> columns;
  for (uint64_t c = 0; c < n_cols; ++c) {
    const ColumnHeader& h = headers[c];
    if (pos + h.validity_size + h.data_size > frame.size()) {
      return Status::IOError("truncated spill frame");
    }
    col::BufferPtr validity;
    if (h.validity_size > 0) {
      BENTO_ASSIGN_OR_RETURN(
          validity, col::Buffer::CopyOf(frame.data() + pos, h.validity_size));
      pos += h.validity_size;
    }
    BENTO_ASSIGN_OR_RETURN(
        auto array,
        io::DecodeArray(static_cast<col::TypeId>(h.type),
                        static_cast<io::Encoding>(h.encoding),
                        frame.data() + pos, h.data_size,
                        static_cast<int64_t>(n_rows), std::move(validity),
                        h.null_count));
    pos += h.data_size;
    columns.push_back(std::move(array));
  }
  return col::Table::Make(part.schema, std::move(columns));
}

Result<std::vector<col::TablePtr>> SpillFrameStore::ReadPartition(
    int partition) {
  if (partition < 0 || partition >= partitions()) {
    return Status::IndexError("spill partition ", partition, " out of range");
  }
  const Partition& part = parts_[static_cast<size_t>(partition)];
  std::vector<col::TablePtr> chunks;
  for (const FrameRef& ref : part.frames) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, ReadFrame(part, ref));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

Result<std::unique_ptr<ChunkStream>> SpillFrameStore::OpenPartition(
    int partition) {
  if (partition < 0 || partition >= partitions()) {
    return Status::IndexError("spill partition ", partition, " out of range");
  }
  return std::unique_ptr<ChunkStream>(
      std::make_unique<PartitionStream>(this, partition));
}

int64_t SpillFrameStore::partition_rows(int partition) const {
  if (partition < 0 || partition >= partitions()) return 0;
  return parts_[static_cast<size_t>(partition)].rows;
}

int64_t SpillFrameStore::partition_frames(int partition) const {
  if (partition < 0 || partition >= partitions()) return 0;
  return static_cast<int64_t>(
      parts_[static_cast<size_t>(partition)].frames.size());
}

}  // namespace bento::eng
