#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "columnar/bitmap.h"
#include "engines/spill_frames.h"
#include "engines/streaming_ops.h"
#include "io/bcf.h"
#include "kernels/groupby.h"
#include "kernels/sort.h"
#include "obs/metrics.h"
#include "sim/spill.h"
#include "tests/test_util.h"
#include "util/random.h"

// Property tests for the spill layer: random round-trips through SpillFile
// and SpillFrameStore, spill-merge equivalence under skewed partition loads,
// and injected short-write/short-read faults that must surface as clean
// Status errors — never as corrupt frames or crashes.

namespace bento::eng {
namespace {

using col::TablePtr;
using kern::AggKind;
using kern::AggSpec;
using test::MakeTable;

/// Disarms the process-wide spill fuses even when an assertion bails out.
struct FaultGuard {
  ~FaultGuard() { sim::SpillFile::ClearFaults(); }
};

TablePtr RandomChunk(Rng* rng, int64_t rows) {
  col::Int64Builder a;
  col::Float64Builder b;
  col::StringBuilder c;
  for (int64_t i = 0; i < rows; ++i) {
    a.AppendMaybe(rng->UniformInt(-1000, 1000), !rng->Bernoulli(0.1));
    b.AppendMaybe(static_cast<double>(rng->UniformInt(0, 500)),
                  !rng->Bernoulli(0.2));
    c.AppendMaybe("s" + std::to_string(rng->UniformInt(0, 9)),
                  !rng->Bernoulli(0.05));
  }
  return MakeTable({{"a", a.Finish().ValueOrDie()},
                    {"b", b.Finish().ValueOrDie()},
                    {"c", c.Finish().ValueOrDie()}});
}

TEST(SpillFilePropertyTest, RandomBlocksRoundTripInAnyReadOrder) {
  Rng rng(1);
  auto spill = sim::SpillFile::Create().ValueOrDie();
  struct Block {
    uint64_t offset;
    std::vector<uint8_t> bytes;
  };
  std::vector<Block> blocks;
  uint64_t total = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> bytes(1 + rng.Uniform(4096));
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Uniform(256));
    }
    auto offset = spill->Write(bytes.data(), bytes.size()).ValueOrDie();
    EXPECT_EQ(offset, total);  // strictly appending
    total += bytes.size();
    blocks.push_back({offset, std::move(bytes)});
  }
  EXPECT_EQ(spill->bytes_written(), total);

  // Read back in a shuffled order, twice (reads must not disturb state).
  std::vector<size_t> order(blocks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t idx : order) {
      const Block& block = blocks[idx];
      std::vector<uint8_t> out(block.bytes.size());
      ASSERT_OK(spill->Read(block.offset, out.size(), out.data()));
      EXPECT_EQ(out, block.bytes) << "block " << idx << " pass " << pass;
    }
  }
}

TEST(SpillFilePropertyTest, InjectedShortWriteFailsCleanlyAndRearms) {
  FaultGuard guard;
  auto spill = sim::SpillFile::Create().ValueOrDie();
  std::vector<uint8_t> bytes(64, 0xAB);

  // Fuse allows exactly one more 64-byte write, then blows.
  sim::SpillFile::InjectFaults(/*write_bytes=*/64, /*read_bytes=*/UINT64_MAX);
  ASSERT_OK(spill->Write(bytes.data(), bytes.size()).status());
  auto blown = spill->Write(bytes.data(), bytes.size());
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(blown.status().IsIOError()) << blown.status().ToString();
  EXPECT_NE(blown.status().ToString().find("injected short write"),
            std::string::npos)
      << blown.status().ToString();

  // Disarming restores service; earlier bytes are intact.
  sim::SpillFile::ClearFaults();
  ASSERT_OK(spill->Write(bytes.data(), bytes.size()).status());
  std::vector<uint8_t> out(64);
  ASSERT_OK(spill->Read(0, out.size(), out.data()));
  EXPECT_EQ(out, bytes);
}

TEST(SpillFilePropertyTest, InjectedShortReadFailsCleanly) {
  FaultGuard guard;
  auto spill = sim::SpillFile::Create().ValueOrDie();
  std::vector<uint8_t> bytes(128, 0x5C);
  ASSERT_OK(spill->Write(bytes.data(), bytes.size()).status());

  sim::SpillFile::InjectFaults(/*write_bytes=*/UINT64_MAX, /*read_bytes=*/64);
  std::vector<uint8_t> out(64);
  ASSERT_OK(spill->Read(0, 64, out.data()));
  Status blown = spill->Read(64, 64, out.data());
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(blown.IsIOError()) << blown.ToString();
  EXPECT_NE(blown.ToString().find("injected short read"), std::string::npos)
      << blown.ToString();
  sim::SpillFile::ClearFaults();
  ASSERT_OK(spill->Read(64, 64, out.data()));
}

TEST(SpillFrameStoreTest, RandomFramesRoundTripPerPartition) {
  Rng rng(7);
  auto store = SpillFrameStore::Create(3).ValueOrDie();
  std::vector<std::vector<TablePtr>> appended(3);
  for (int i = 0; i < 30; ++i) {
    const int partition = static_cast<int>(rng.Uniform(3));
    auto chunk = RandomChunk(&rng, 1 + rng.UniformInt(0, 400));
    ASSERT_OK(store->Append(partition, chunk));
    appended[static_cast<size_t>(partition)].push_back(chunk);
  }
  EXPECT_GT(store->bytes_written(), 0u);

  for (int p = 0; p < 3; ++p) {
    SCOPED_TRACE(p);
    const auto& expected = appended[static_cast<size_t>(p)];
    auto frames = store->ReadPartition(p).ValueOrDie();
    ASSERT_EQ(frames.size(), expected.size());
    int64_t rows = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
      test::ExpectTablesEqual(expected[i], frames[i]);  // append order
      rows += expected[i]->num_rows();
    }
    EXPECT_EQ(store->partition_rows(p), rows);
    EXPECT_EQ(store->partition_frames(p),
              static_cast<int64_t>(expected.size()));

    // The streaming cursor yields the same frames.
    auto stream = store->OpenPartition(p).ValueOrDie();
    for (const TablePtr& want : expected) {
      auto got = stream->Next().ValueOrDie();
      ASSERT_NE(got, nullptr);
      test::ExpectTablesEqual(want, got);
    }
    EXPECT_EQ(stream->Next().ValueOrDie(), nullptr);
  }
}

TEST(SpillFrameStoreTest, EmptyPartitionsAndSchemaRules) {
  Rng rng(9);
  auto store = SpillFrameStore::Create(1).ValueOrDie();
  auto chunk = RandomChunk(&rng, 50);

  // A schema-less partition streams nothing.
  const int bare = store->AddPartition();
  {
    auto stream = store->OpenPartition(bare).ValueOrDie();
    EXPECT_EQ(stream->Next().ValueOrDie(), nullptr);
  }

  // A zero-row append records the schema; the stream emits one typed empty
  // chunk (so downstream operators keep their column types).
  const int typed = store->AddPartition();
  ASSERT_OK(store->Append(typed, chunk->Slice(0, 0).ValueOrDie()));
  EXPECT_EQ(store->partition_frames(typed), 0);
  {
    auto stream = store->OpenPartition(typed).ValueOrDie();
    auto empty = stream->Next().ValueOrDie();
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->num_rows(), 0);
    EXPECT_EQ(empty->schema()->names(), chunk->schema()->names());
    EXPECT_EQ(stream->Next().ValueOrDie(), nullptr);
  }

  // Appending a different schema to a committed partition is rejected.
  ASSERT_OK(store->Append(0, chunk));
  auto other = MakeTable({{"z", test::I64({1, 2, 3})}});
  EXPECT_FALSE(store->Append(0, other).ok());

  // Out-of-range partitions error instead of crashing.
  EXPECT_FALSE(store->Append(99, chunk).ok());
  EXPECT_FALSE(store->ReadPartition(-1).ok());
  EXPECT_FALSE(store->OpenPartition(99).ok());
  EXPECT_FALSE(SpillFrameStore::Create(-1).ok());
}

TEST(SpillFrameStoreTest, FaultsNeverSurfaceCorruptFrames) {
  FaultGuard guard;
  Rng rng(11);
  auto store = SpillFrameStore::Create(1).ValueOrDie();
  auto chunk = RandomChunk(&rng, 200);
  ASSERT_OK(store->Append(0, chunk));

  // Write fuse: the failed Append registers no frame, and the partition
  // still reads back exactly what was committed before the fault.
  sim::SpillFile::InjectFaults(/*write_bytes=*/16, /*read_bytes=*/UINT64_MAX);
  Status blown = store->Append(0, chunk);
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(blown.IsIOError()) << blown.ToString();
  sim::SpillFile::ClearFaults();
  EXPECT_EQ(store->partition_frames(0), 1);
  auto frames = store->ReadPartition(0).ValueOrDie();
  ASSERT_EQ(frames.size(), 1u);
  test::ExpectTablesEqual(chunk, frames[0]);

  // Read fuse: a blown read is a clean error, and clearing it recovers.
  sim::SpillFile::InjectFaults(/*write_bytes=*/UINT64_MAX, /*read_bytes=*/8);
  auto bad = store->ReadPartition(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsIOError()) << bad.status().ToString();
  sim::SpillFile::ClearFaults();
  ASSERT_OK(store->ReadPartition(0).status());
}

/// Integer-valued table with a heavily skewed key: ~90% of rows share key 0,
/// so one spill partition carries almost all the data while others are near
/// empty (some genuinely empty at low partition counts).
TablePtr SkewedTable(int64_t rows, uint64_t seed, int64_t key_card) {
  Rng rng(seed);
  col::Int64Builder k;
  col::Float64Builder v;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.Bernoulli(0.9) ? 0 : rng.UniformInt(1, key_card - 1));
    v.AppendMaybe(static_cast<double>(rng.UniformInt(0, 100)),
                  !rng.Bernoulli(0.1));
  }
  return MakeTable(
      {{"k", k.Finish().ValueOrDie()}, {"v", v.Finish().ValueOrDie()}});
}

TEST(SpillMergePropertyTest, GroupBySpillMergeMatchesUnderSkew) {
  std::vector<AggSpec> aggs = {{"v", AggKind::kSum, "v_sum"},
                               {"v", AggKind::kCount, "v_cnt"},
                               {"v", AggKind::kMin, "v_min"},
                               {"v", AggKind::kStd, "v_std"}};
  for (uint64_t seed : {21, 22, 23}) {
    auto t = SkewedTable(5000, seed, /*key_card=*/200);
    auto eager = kern::GroupBy(t, {"k"}, aggs).ValueOrDie();
    for (int partitions : {2, 4, 32}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " partitions=" + std::to_string(partitions));
      StreamingGroupByOptions options;
      options.spill_partitions = partitions;
      options.spill_threshold_bytes = 0;
      TableChunkStream stream(t, 123);
      ParallelPipelineDriver stage(&stream, GroupByChunkMap({"k"}, aggs), {});
      auto spilled =
          StreamingGroupBy(&stage, {"k"}, aggs, options).ValueOrDie();
      test::ExpectTablesEqual(eager, spilled);
    }
  }
}

TEST(SpillMergePropertyTest, ExternalSortTinyRunsMatchInMemorySort) {
  Rng rng(31);
  // Heavy duplication in the key exercises merge stability: equal keys must
  // come out in input order, exactly as the in-memory stable sort emits them.
  col::Int64Builder k;
  col::Float64Builder v;
  for (int64_t i = 0; i < 4000; ++i) {
    k.Append(rng.UniformInt(0, 7));
    v.AppendMaybe(static_cast<double>(rng.UniformInt(0, 50)),
                  !rng.Bernoulli(0.1));
  }
  auto t = MakeTable(
      {{"k", k.Finish().ValueOrDie()}, {"v", v.Finish().ValueOrDie()}});
  std::vector<kern::SortKey> keys = {{"k", true}, {"v", false}};
  auto expected = kern::SortTable(t, keys).ValueOrDie();
  for (int64_t run_rows : {64, 555, 100000}) {
    SCOPED_TRACE(run_rows);
    TableChunkStream stream(t, 321);
    auto sorted = ExternalSort(&stream, keys, {}, run_rows).ValueOrDie();
    test::ExpectTablesEqual(expected, sorted);
  }
}

TEST(SpillMergePropertyTest, GroupBySpillWriteFaultAbortsCleanly) {
  FaultGuard guard;
  auto t = SkewedTable(3000, 41, /*key_card=*/100);
  StreamingGroupByOptions options;
  options.spill_threshold_bytes = 0;
  // Let a few frames through, then blow mid-spill.
  sim::SpillFile::InjectFaults(/*write_bytes=*/4096,
                               /*read_bytes=*/UINT64_MAX);
  const std::vector<AggSpec> aggs = {{"v", AggKind::kSum, "v_sum"}};
  TableChunkStream stream(t, 100);
  ParallelPipelineDriver stage(&stream, GroupByChunkMap({"k"}, aggs), {});
  auto result = StreamingGroupBy(&stage, {"k"}, aggs, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("injected"), std::string::npos)
      << result.status().ToString();
}

TEST(SpillMergePropertyTest, ExternalSortReadFaultAbortsCleanly) {
  FaultGuard guard;
  auto t = SkewedTable(3000, 43, /*key_card=*/100);
  // Runs spill fine; the k-way merge's reads hit the fuse.
  sim::SpillFile::InjectFaults(/*write_bytes=*/UINT64_MAX,
                               /*read_bytes=*/2048);
  TableChunkStream stream(t, 300);
  auto result = ExternalSort(&stream, {{"k", true}}, {}, /*run_rows=*/200);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
}

// --- temporary runs in the in-memory layout ---
//
// Every temporary run (sorted output, spilled streams, mapped
// materializations, spill frames) is written PLAIN/STRVIEW with no codec:
// values must come back bit for bit, whatever the layout of the chunk that
// was written.

/// A string column whose null slots still cover bytes (what a kernel may
/// leave behind): the STRVIEW encoder cannot copy its character range in
/// one block.
col::ArrayPtr GhostStrings(Rng* rng, int64_t rows) {
  std::string chars;
  std::vector<int64_t> offsets = {0};
  auto validity = col::AllocateBitmap(rows, false).ValueOrDie();
  for (int64_t i = 0; i < rows; ++i) {
    chars += "g" + std::to_string(i % 13);
    offsets.push_back(static_cast<int64_t>(chars.size()));
    if (!rng->Bernoulli(0.3)) col::SetBit(validity->mutable_data(), i);
  }
  return col::Array::MakeString(
             rows,
             col::Buffer::CopyOf(offsets.data(), offsets.size() * 8)
                 .ValueOrDie(),
             col::Buffer::CopyOf(chars.data(), chars.size()).ValueOrDie(),
             std::move(validity))
      .ValueOrDie();
}

/// Every column type plus the edge cases a run must carry: empty strings,
/// all-null columns, a categorical, float specials (-0, NaN, inf,
/// subnormal) and ghost string bytes. Sliced at a row offset that is not a
/// multiple of 8, so validity starts mid-byte and string offsets do not
/// start at zero.
TablePtr EdgeCaseTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  const int64_t n = rows + 5;
  col::Int64Builder key, i64;
  col::Float64Builder f64;
  col::BoolBuilder flag;
  col::StringBuilder str;
  auto stamps = col::Buffer::Allocate(static_cast<uint64_t>(n) * 8)
                    .ValueOrDie();
  auto codes = col::Buffer::Allocate(static_cast<uint64_t>(n) * 4)
                   .ValueOrDie();
  auto stamp_bits = col::AllocateBitmap(n, false).ValueOrDie();
  auto code_bits = col::AllocateBitmap(n, false).ValueOrDie();
  const double specials[] = {-0.0, std::nan(""), -INFINITY, 5e-324, 0.1};
  for (int64_t i = 0; i < n; ++i) {
    key.Append(rng.UniformInt(0, 9));
    i64.AppendMaybe(static_cast<int64_t>(rng.Next()), !rng.Bernoulli(0.2));
    f64.AppendMaybe(rng.Bernoulli(0.2) ? specials[rng.Uniform(5)]
                                       : rng.Normal(0.0, 1e6),
                    !rng.Bernoulli(0.2));
    flag.AppendMaybe(rng.Bernoulli(0.5), !rng.Bernoulli(0.2));
    str.AppendMaybe(rng.Bernoulli(0.3) ? std::string()
                                       : "s" + std::to_string(rng.Next()),
                    !rng.Bernoulli(0.2));
    stamps->mutable_data_as<int64_t>()[i] =
        1600000000000000 + rng.UniformInt(0, 1000000000);
    if (!rng.Bernoulli(0.2)) col::SetBit(stamp_bits->mutable_data(), i);
    codes->mutable_data_as<int32_t>()[i] = static_cast<int32_t>(rng.Uniform(4));
    if (!rng.Bernoulli(0.2)) col::SetBit(code_bits->mutable_data(), i);
  }
  auto dict = std::make_shared<std::vector<std::string>>(
      std::vector<std::string>{"red", "", "green", "blue"});
  auto t = MakeTable(
      {{"key", key.Finish().ValueOrDie()},
       {"i64", i64.Finish().ValueOrDie()},
       {"f64", f64.Finish().ValueOrDie()},
       {"flag", flag.Finish().ValueOrDie()},
       {"str", str.Finish().ValueOrDie()},
       {"ghost", GhostStrings(&rng, n)},
       {"ts", col::Array::MakeFixed(col::TypeId::kTimestamp, n,
                                    std::move(stamps), std::move(stamp_bits))
                  .ValueOrDie()},
       {"cat", col::Array::MakeCategorical(n, std::move(codes), dict,
                                           std::move(code_bits))
                   .ValueOrDie()},
       {"null_i64",
        col::Array::MakeAllNull(col::TypeId::kInt64, n).ValueOrDie()},
       {"null_str",
        col::Array::MakeAllNull(col::TypeId::kString, n).ValueOrDie()}});
  return t->Slice(5, rows).ValueOrDie();
}

/// Same schema, same validity, and every valid value the same bits
/// (doubles compare as bytes, so -0.0 and NaN count; categoricals compare
/// by the string a code names). A null string slot of `actual` spans no
/// bytes: the encoders write null slots as empty strings.
::testing::AssertionResult SameBits(const TablePtr& expected,
                                    const TablePtr& actual) {
  if (!(*expected->schema() == *actual->schema())) {
    return ::testing::AssertionFailure() << "schema differs";
  }
  if (expected->num_rows() != actual->num_rows()) {
    return ::testing::AssertionFailure()
           << actual->num_rows() << " rows, expected " << expected->num_rows();
  }
  for (int c = 0; c < expected->num_columns(); ++c) {
    const col::Array& e = *expected->column(c);
    const col::Array& a = *actual->column(c);
    for (int64_t r = 0; r < expected->num_rows(); ++r) {
      bool same = e.IsValid(r) == a.IsValid(r);
      if (same && !e.IsValid(r) && a.type() == col::TypeId::kString) {
        same = a.offsets_data()[r] == a.offsets_data()[r + 1];
      } else if (same && e.IsValid(r)) {
        switch (e.type()) {
          case col::TypeId::kInt64:
          case col::TypeId::kTimestamp:
            same = e.int64_data()[r] == a.int64_data()[r];
            break;
          case col::TypeId::kFloat64:
            same = std::memcmp(e.float64_data() + r, a.float64_data() + r,
                               8) == 0;
            break;
          case col::TypeId::kBool:
            same = e.bool_data()[r] == a.bool_data()[r];
            break;
          case col::TypeId::kString:
            same = e.GetView(r) == a.GetView(r);
            break;
          case col::TypeId::kCategorical:
            same = (*e.dictionary())[static_cast<size_t>(e.codes_data()[r])] ==
                   (*a.dictionary())[static_cast<size_t>(a.codes_data()[r])];
            break;
        }
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "column " << expected->schema()->field(c).name << " row "
               << r << ": " << test::CellStr(e, r) << " vs "
               << test::CellStr(a, r);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Deletes a temp run when the test ends, passed or not.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

TEST(TempRunTest, SpillStreamRoundTripsEveryTypeBitForBit) {
  auto t = EdgeCaseTable(1000, 51);
  TableChunkStream stream(t, 37);
  RemoveOnExit run{SpillStreamToFile(&stream).ValueOrDie()};
  for (bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap);
    io::BcfReadOptions ropts;
    ropts.use_mmap = use_mmap;
    auto reader = io::BcfReader::Open(run.path, ropts).ValueOrDie();
    EXPECT_TRUE(SameBits(t, reader->ReadAll().ValueOrDie()));
  }
}

TEST(TempRunTest, ExternalSortRunRoundTripsEveryTypeBitForBit) {
  auto t = EdgeCaseTable(1000, 52);
  const std::vector<kern::SortKey> keys = {{"key", true}};
  auto sorted = kern::SortTable(t, keys).ValueOrDie();
  // The k-way merge assembles categoricals as their strings.
  auto cat = sorted->GetColumn("cat").ValueOrDie();
  col::StringBuilder cat_strings;
  for (int64_t i = 0; i < cat->length(); ++i) {
    cat_strings.AppendMaybe(
        cat->IsValid(i) ? (*cat->dictionary())[static_cast<size_t>(
                              cat->codes_data()[i])]
                        : std::string(),
        cat->IsValid(i));
  }
  auto merged =
      sorted->SetColumn("cat", cat_strings.Finish().ValueOrDie()).ValueOrDie();
  // 100 rows per run goes through the merge; 100000 is a single run.
  for (int64_t run_rows : {100, 100000}) {
    SCOPED_TRACE(run_rows);
    TableChunkStream stream(t, 37);
    RemoveOnExit run{
        ExternalSortToFile(&stream, keys, {}, run_rows).ValueOrDie()};
    auto reader = io::BcfReader::Open(run.path).ValueOrDie();
    EXPECT_TRUE(SameBits(run_rows < t->num_rows() ? merged : sorted,
                         reader->ReadAll().ValueOrDie()));
  }
}

TEST(TempRunTest, MappedMaterializationRoundTripsEveryTypeBitForBit) {
  auto t = EdgeCaseTable(1000, 53);
  for (int workers : {1, 3}) {
    SCOPED_TRACE(workers);
    TableChunkStream stream(t, 37);
    MaterializeOptions options;
    options.compact_workers = workers;
    // An inline limit of 0 forces both passes: spill, then compaction.
    auto mapped = MaterializeStreamMapped(&stream, 0, options).ValueOrDie();
    EXPECT_TRUE(SameBits(t, mapped));
  }
}

TEST(TempRunTest, SpillFramesRoundTripEveryTypeBitForBit) {
  auto t = EdgeCaseTable(1000, 54);
  auto store = SpillFrameStore::Create(1).ValueOrDie();
  TableChunkStream stream(t, 37);
  while (true) {
    auto chunk = stream.Next().ValueOrDie();
    if (chunk == nullptr) break;
    ASSERT_OK(store->Append(0, chunk));
  }
  auto frames = store->ReadPartition(0).ValueOrDie();
  EXPECT_TRUE(SameBits(t, col::ConcatTables(frames).ValueOrDie()));
}

/// A temp run holds no DICT or DELTA page for strings or int64: through an
/// mmap reader every page is served zero-copy, so reading the run adds to
/// io.bcf.bytes_mapped and nothing to io.bcf.bytes_read.
TEST(TempRunTest, RunsWithoutCategoricalsReadBackFullyMapped) {
  obs::Counter* bytes_read =
      obs::MetricsRegistry::Global().counter("io.bcf.bytes_read");
  obs::Counter* bytes_mapped =
      obs::MetricsRegistry::Global().counter("io.bcf.bytes_mapped");
  auto t = EdgeCaseTable(5000, 55)->DropColumns({"cat"}).ValueOrDie();
  const std::vector<kern::SortKey> keys = {{"key", true}};
  TableChunkStream spill_input(t, 1000);
  RemoveOnExit spilled{SpillStreamToFile(&spill_input).ValueOrDie()};
  TableChunkStream sort_input(t, 1000);
  RemoveOnExit sorted{
      ExternalSortToFile(&sort_input, keys, {}, 1500).ValueOrDie()};
  const std::pair<std::string, TablePtr> runs[] = {
      {spilled.path, t}, {sorted.path, kern::SortTable(t, keys).ValueOrDie()}};
  for (const auto& [path, expected] : runs) {
    io::BcfReadOptions ropts;
    ropts.use_mmap = true;
    auto reader = io::BcfReader::Open(path, ropts).ValueOrDie();
    if (!reader->mmap_active()) {
      GTEST_SKIP() << "mmap disabled by BENTO_BCF_MMAP";
    }
    const uint64_t read_before = bytes_read->value();
    const uint64_t mapped_before = bytes_mapped->value();
    auto back = reader->ReadAll().ValueOrDie();
    EXPECT_EQ(bytes_read->value(), read_before);
    EXPECT_GT(bytes_mapped->value(), mapped_before);
    EXPECT_TRUE(SameBits(expected, back));
  }
}

}  // namespace
}  // namespace bento::eng
