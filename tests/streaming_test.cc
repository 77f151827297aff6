#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engines/lazy_engine.h"
#include "engines/spark.h"
#include "engines/streaming_ops.h"
#include "frame/exec.h"
#include "io/csv.h"
#include "kernels/encode.h"
#include "kernels/sort.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace bento::eng {
namespace {

using col::Scalar;
using col::TablePtr;
using col::TypeId;
using frame::Op;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

TablePtr RandomTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  col::Int64Builder k;
  col::Float64Builder v;
  col::StringBuilder s;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.UniformInt(0, 25));
    v.AppendMaybe(rng.UniformDouble(0, 10), !rng.Bernoulli(0.2));
    s.Append(std::string(1, static_cast<char>('a' + rng.Uniform(5))));
  }
  return MakeTable({{"k", k.Finish().ValueOrDie()},
                    {"v", v.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()}});
}

TEST(TableChunkStreamTest, TailChunkCoversEveryRow) {
  auto t = RandomTable(10, 21);
  for (int64_t chunk_rows : {3, 5, 7, 9}) {
    SCOPED_TRACE(chunk_rows);
    TableChunkStream stream(t, chunk_rows);
    std::vector<TablePtr> chunks;
    int64_t rows = 0;
    while (true) {
      auto chunk = stream.Next().ValueOrDie();
      if (chunk == nullptr) break;
      EXPECT_LE(chunk->num_rows(), chunk_rows);
      rows += chunk->num_rows();
      chunks.push_back(chunk);
    }
    EXPECT_EQ(rows, 10);
    test::ExpectTablesEqual(t, col::ConcatTables(chunks).ValueOrDie());
  }
}

TEST(TableChunkStreamTest, WholeTableChunkIsPassThrough) {
  auto t = RandomTable(10, 22);
  for (int64_t chunk_rows : {int64_t{10}, int64_t{11}, int64_t{1} << 40}) {
    TableChunkStream stream(t, chunk_rows);
    // Covering chunk sizes hand back the table itself (no slice copy)...
    EXPECT_EQ(stream.Next().ValueOrDie().get(), t.get());
    // ...exactly once.
    EXPECT_EQ(stream.Next().ValueOrDie(), nullptr);
    EXPECT_EQ(stream.Next().ValueOrDie(), nullptr);
  }
}

TEST(TableChunkStreamTest, EmptyTableYieldsOneTypedChunk) {
  auto t = RandomTable(5, 23)->Slice(0, 0).ValueOrDie();
  TableChunkStream stream(t, 100);
  auto chunk = stream.Next().ValueOrDie();
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->num_rows(), 0);
  EXPECT_EQ(chunk->schema()->names(), t->schema()->names());
  EXPECT_EQ(stream.Next().ValueOrDie(), nullptr);
}

TEST(ConcatReleasingTest, MatchesPlainConcat) {
  auto t = RandomTable(5000, 1);
  std::vector<TablePtr> a, b;
  for (int64_t off = 0; off < 5000; off += 700) {
    int64_t len = std::min<int64_t>(700, 5000 - off);
    a.push_back(t->Slice(off, len).ValueOrDie());
    b.push_back(t->Slice(off, len).ValueOrDie());
  }
  auto plain = col::ConcatTables(a).ValueOrDie();
  auto releasing = col::ConcatTablesReleasing(&b).ValueOrDie();
  EXPECT_TRUE(b.empty());
  test::ExpectTablesEqual(plain, releasing);
}

TEST(ConcatReleasingTest, SingleTablePassThrough) {
  auto t = RandomTable(10, 2);
  std::vector<TablePtr> one = {t};
  auto out = col::ConcatTablesReleasing(&one).ValueOrDie();
  EXPECT_EQ(out.get(), t.get());
  std::vector<TablePtr> none;
  EXPECT_FALSE(col::ConcatTablesReleasing(&none).ok());
}

TEST(SpillTest, SpillStreamRoundTrip) {
  auto t = RandomTable(3000, 3);
  TableChunkStream stream(t, 500);
  auto path = SpillStreamToFile(&stream).ValueOrDie();
  auto back = io::BcfReader::Open(path).ValueOrDie()->ReadAll().ValueOrDie();
  test::ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST(SpillTest, DistinctValuesFirstSeenOrder) {
  auto t = MakeTable({{"c", Str({"b", "a", "b", "c", "a"},
                                {true, true, true, true, false})}});
  TableChunkStream stream(t, 2);
  auto distinct = StreamDistinctValues(&stream, "c").ValueOrDie();
  EXPECT_EQ(distinct, (std::vector<std::string>{"b", "a", "c"}));
}

TEST(SpillTest, StreamColumnMean) {
  auto t = MakeTable({{"v", F64({1.0, 2.0, 0.0, 3.0},
                                {true, true, false, true})}});
  TableChunkStream stream(t, 3);
  EXPECT_DOUBLE_EQ(StreamColumnMean(&stream, "v").ValueOrDie(), 2.0);
}

TEST(ExternalSortToFileTest, MatchesInMemorySort) {
  auto t = RandomTable(4000, 7);
  std::vector<kern::SortKey> keys = {{"k", true}, {"v", true}};
  auto expected = kern::SortTable(t, keys).ValueOrDie();
  TableChunkStream stream(t, 333);
  auto path =
      ExternalSortToFile(&stream, keys, {}, /*run_rows=*/600).ValueOrDie();
  auto back = io::BcfReader::Open(path).ValueOrDie()->ReadAll().ValueOrDie();
  test::ExpectTablesEqual(expected, back);
  std::remove(path.c_str());
}

TEST(EncodeFixedTest, GetDummiesWithCategoriesMatchesDiscovery) {
  auto t = MakeTable({{"c", Str({"x", "y", "x", "z"})}});
  auto discovered = kern::GetDummies(t, "c").ValueOrDie();
  auto fixed =
      kern::GetDummiesWithCategories(t, "c", {"x", "y", "z"}).ValueOrDie();
  test::ExpectTablesEqual(discovered, fixed);
  // A fixed list that misses a value leaves its rows all-zero.
  auto narrow = kern::GetDummiesWithCategories(t, "c", {"x"}).ValueOrDie();
  EXPECT_EQ(narrow->GetColumn("c_x").ValueOrDie()->int64_data()[3], 0);
}

TEST(EncodeFixedTest, CatCodesWithDict) {
  auto v = Str({"b", "a", "?"}, {true, true, true});
  auto codes = kern::CatCodesWithDict(v, {"a", "b"}).ValueOrDie();
  EXPECT_EQ(codes->int64_data()[0], 1);
  EXPECT_EQ(codes->int64_data()[1], 0);
  EXPECT_TRUE(codes->IsNull(2));  // unseen under a fixed dictionary
}

/// The two-pass streaming breakers must produce the same frames as the
/// in-memory path: run the same plan with spark under a tight budget
/// (forces streaming) and without (in-memory) and compare.
TEST(TwoPassBreakersTest, TightMemoryMatchesUnbounded) {
  auto t = RandomTable(20000, 11);

  std::vector<Op> plan = {
      Op::Query("k >= 1"),
      Op::GetDummies("s"),
      Op::FillNaMean("v"),
      Op::SortValues({{"k", true}, {"v", true}}),
      Op::Round("v", 3),
  };

  SparkSqlEngine engine;
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;

  TablePtr unbounded = engine.Execute(source, plan).ValueOrDie();

  // Budget ~1.7x the OUTPUT (one-hot widens the frame): enough for the
  // result plus streaming chunks, well below the >2.3x that the in-memory
  // path (drain + sort input/indices/output) needs.
  sim::MachineSpec tight{"tight", 4,
                         static_cast<uint64_t>(unbounded->ByteSize() * 17 / 10),
                         std::nullopt};
  // The source table lives outside the session; only working memory counts.
  sim::Session session(tight);
  auto streamed = engine.Execute(source, plan);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  test::ExpectTablesEqual(unbounded, streamed.ValueOrDie());
}

TEST(TwoPassBreakersTest, MergeStreamsToo) {
  auto left = RandomTable(8000, 13);
  auto right = MakeTable({{"k", I64({0, 1, 2, 3, 4})},
                          {"label", Str({"a", "b", "c", "d", "e"})}});
  SparkSqlEngine engine;
  auto right_frame = engine.FromTable(right).ValueOrDie();

  std::vector<Op> plan = {
      Op::Merge(right_frame, "k", "k", kern::JoinType::kLeft),
      Op::StrLower("label"),
  };
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = left;

  TablePtr unbounded = engine.Execute(source, plan).ValueOrDie();
  sim::MachineSpec tight{"tight", 4,
                         static_cast<uint64_t>(left->ByteSize() * 2),
                         std::nullopt};
  sim::Session session(tight);
  auto streamed = engine.Execute(source, plan);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  test::ExpectTablesEqual(unbounded, streamed.ValueOrDie());
}

TEST(StreamingActionsTest, MatchMaterializedActions) {
  auto t = RandomTable(10000, 17);
  SparkSqlEngine engine;
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;
  std::vector<Op> plan = {Op::Query("k > 2")};

  // Reference: materialize then act.
  auto table = engine.Execute(source, plan).ValueOrDie();
  auto expected_isna =
      frame::ExecAction(table, Op::IsNa(), engine.ExecutionPolicy())
          .ValueOrDie();
  auto expected_search = frame::ExecAction(t, Op::SearchPattern("s", "a"),
                                           engine.ExecutionPolicy())
                             .ValueOrDie();

  // Streaming: via ExecuteAction.
  auto isna = engine.ExecuteAction(source, plan, Op::IsNa()).ValueOrDie();
  EXPECT_EQ(isna.counts, expected_isna.counts);
  auto search =
      engine.ExecuteAction(source, {}, Op::SearchPattern("s", "a")).ValueOrDie();
  EXPECT_EQ(search.count, expected_search.count);
  auto cols = engine.ExecuteAction(source, plan, Op::GetColumns()).ValueOrDie();
  EXPECT_EQ(cols.names, t->schema()->names());
}

/// SparkSQL model whose only modeled cost is a large per-chunk dispatch
/// overhead, streaming fixed 100-row chunks.
class PerChunkEngine : public SparkSqlEngine {
 public:
  static constexpr double kPenalty = 1.0;  // seconds; real work is ~ms
  int64_t ChunkRows() const override { return 100; }
  double PlanOverheadSeconds() const override { return 0.0; }
  double PerChunkOverheadSeconds() const override { return kPenalty; }
};

/// Pins BENTO_PIPELINE_WORKERS for one scope.
struct PipelineWorkersEnv {
  explicit PipelineWorkersEnv(const char* workers) {
    setenv("BENTO_PIPELINE_WORKERS", workers, 1);
  }
  ~PipelineWorkersEnv() { unsetenv("BENTO_PIPELINE_WORKERS"); }
};

/// Every chunk a stage claims is charged the per-chunk overhead exactly
/// once, whether one worker runs the stage inline or four modeled workers
/// share it: virtual time lands within half a penalty of chunks x penalty.
TEST(PerChunkOverheadTest, ChargesEveryClaimedChunkOnce) {
  const TablePtr t = RandomTable(1000, 23);  // ten 100-row chunks
  PerChunkEngine engine;
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;
  const std::vector<Op> filter = {Op::Query("k >= 0")};
  const std::vector<Op> group_by = {
      Op::Query("k >= 0"),
      Op::GroupByAgg({"k"}, {{"v", kern::AggKind::kSum, "v_sum"}})};

  auto virtual_seconds = [&](const sim::MachineSpec& spec, auto run) {
    sim::Session session(spec);
    session.set_execution_mode(sim::ExecutionMode::kSimulated);
    sim::VirtualTimer timer;
    run();
    return timer.Elapsed();
  };
  // Budget well under 5x the source: group-by streams, fused with the run.
  const sim::MachineSpec tight{"tight", 4, t->ByteSize() * 2, std::nullopt};

  for (const char* workers : {"1", "4"}) {
    SCOPED_TRACE(workers);
    PipelineWorkersEnv env(workers);

    const double plain = virtual_seconds(sim::MachineSpec{}, [&] {
      ASSERT_TRUE(engine.Execute(source, filter).ok());
    });
    EXPECT_NEAR(plain, 10 * PerChunkEngine::kPenalty,
                PerChunkEngine::kPenalty / 2);

    // Ten source chunks through the fused group-by stage, then the result
    // (at most 26 groups) as one chunk through the plan's final stage.
    const double fused = virtual_seconds(tight, [&] {
      ASSERT_TRUE(engine.Execute(source, group_by).ok());
    });
    EXPECT_NEAR(fused, 11 * PerChunkEngine::kPenalty,
                PerChunkEngine::kPenalty / 2);

    const double action = virtual_seconds(sim::MachineSpec{}, [&] {
      ASSERT_TRUE(engine.ExecuteAction(source, filter, Op::IsNa()).ok());
    });
    EXPECT_NEAR(action, 10 * PerChunkEngine::kPenalty,
                PerChunkEngine::kPenalty / 2);
  }
}

/// Spark with small, odd-sized chunks and no plan overhead.
class SmallChunkEngine : public SparkSqlEngine {
 public:
  int64_t ChunkRows() const override { return 97; }
  double PlanOverheadSeconds() const override { return 0.0; }
};

/// A CSV source cuts text on the claim path and parses it on the pipeline
/// workers. The plan's output must match the same plan over the table that
/// ReadCsv decodes, with one and four workers, real and modeled, with the
/// group-by materialized and streamed (tight budget).
TEST(CsvSourceTest, WorkerDecodedCsvMatchesTableSource) {
  const std::string path =
      "/tmp/bento_streaming_csv_" + std::to_string(getpid()) + ".csv";
  ASSERT_TRUE(io::WriteCsv(RandomTable(6000, 29), path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const uint64_t file_bytes = static_cast<uint64_t>(std::ftell(f));
  std::fclose(f);

  SmallChunkEngine engine;
  LazySource csv;
  csv.kind = LazySource::Kind::kCsv;
  csv.path = path;
  LazySource table;
  table.kind = LazySource::Kind::kTable;
  table.table = io::ReadCsv(path).ValueOrDie();
  const std::vector<std::vector<Op>> plans = {
      {Op::Query("k >= 3"), Op::StrLower("s")},
      {Op::Query("k >= 3"),
       Op::GroupByAgg({"k"}, {{"v", kern::AggKind::kMin, "v_min"},
                              {"v", kern::AggKind::kMax, "v_max"},
                              {"v", kern::AggKind::kCount, "v_cnt"}})},
  };
  // Unbounded, and under a budget that makes the CSV source memory-tight
  // (the group-by then streams, fused with the filter on the workers).
  const std::vector<sim::MachineSpec> machines = {
      sim::MachineSpec{},
      sim::MachineSpec{"tight", 4, file_bytes * 4, std::nullopt}};
  for (const sim::ExecutionMode mode :
       {sim::ExecutionMode::kSimulated, sim::ExecutionMode::kReal}) {
    for (const char* workers : {"1", "4"}) {
      for (const sim::MachineSpec& machine : machines) {
        SCOPED_TRACE(std::string(workers) + " workers, " + machine.name +
                     (mode == sim::ExecutionMode::kReal ? ", real"
                                                        : ", modeled"));
        PipelineWorkersEnv env(workers);
        sim::Session session(machine);
        session.set_execution_mode(mode);
        for (const std::vector<Op>& plan : plans) {
          auto expected = engine.Execute(table, plan);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString();
          auto streamed = engine.Execute(csv, plan);
          ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
          test::ExpectTablesEqual(expected.ValueOrDie(),
                                  streamed.ValueOrDie());
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ObjectStringModelTest, PandasChargesBoxingOverhead) {
  // 1000 rows x 1 string column x 57 bytes must appear in the pool while the
  // pandas frame is alive, and vanish when it dies.
  std::vector<std::string> values(1000, "abc");
  auto t = MakeTable({{"s", Str(values)}});

  sim::MemoryPool pool("measure", 0);
  uint64_t with_frame = 0;
  {
    sim::MemoryScope scope(&pool);
    auto engine = frame::CreateEngine("pandas").ValueOrDie();
    auto frame = engine->FromTable(t).ValueOrDie();
    with_frame = pool.bytes_allocated();
  }
  EXPECT_GE(with_frame, 1000u * 57u);
  EXPECT_EQ(pool.bytes_allocated(), 0u);

  // An Arrow-backed engine charges nothing extra.
  sim::MemoryPool pool2("measure2", 0);
  {
    sim::MemoryScope scope(&pool2);
    auto engine = frame::CreateEngine("polars").ValueOrDie();
    auto frame = engine->FromTable(t).ValueOrDie();
    EXPECT_LT(pool2.bytes_allocated(), 1000u * 57u);
  }
}

TEST(ScaledBatchRowsTest, ScalesWithCostScale) {
  // Default BENTO_SCALE in tests is 0.001 -> full-scale 128k shrinks to the
  // clamp floor.
  EXPECT_EQ(ScaledBatchRows(128 * 1024), 2048);
  EXPECT_EQ(ScaledBatchRows(128 * 1024, 100), 131);
}

}  // namespace
}  // namespace bento::eng
