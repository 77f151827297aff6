// Unit suite for the flat open-addressing hash layer (kernels/flat_index)
// plus hash-collision adversaries: every consumer kernel must produce
// byte-identical output when all keys share one 64-bit hash, because
// correctness is required to rest on the RowEquality / arena-equality
// fallback, never on hash distribution.
#include "kernels/flat_index.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "kernels/dedup.h"
#include "kernels/encode.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/pivot.h"
#include "kernels/row_hash.h"
#include "tests/kernel_oracles.h"
#include "tests/test_util.h"

namespace bento::kern {
namespace {

using test::ExpectSameTable;
using test::ExpectTablesEqual;
using test::I64;
using test::MakeTable;
using test::Str;

// --- Hash64 ---------------------------------------------------------------

TEST(Hash64Test, DeterministicAndLengthSensitive) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t len = 0; len <= data.size(); ++len) {
    EXPECT_EQ(Hash64(data.data(), len), Hash64(data.data(), len));
  }
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= data.size(); ++len) {
    seen.insert(Hash64(data.data(), len));
  }
  EXPECT_EQ(seen.size(), data.size() + 1) << "prefix hashes must differ";
}

TEST(Hash64Test, ContentSensitiveAtEveryPosition) {
  // Flipping any single byte must change the hash (catches lane/tail bugs
  // around the 4/16/32-byte boundaries of the word-at-a-time loop).
  for (size_t len : {1u, 3u, 4u, 7u, 8u, 12u, 15u, 16u, 17u, 31u, 32u, 33u, 64u}) {
    std::string base(len, 'x');
    const uint64_t h = Hash64(base.data(), base.size());
    for (size_t i = 0; i < len; ++i) {
      std::string mod = base;
      mod[i] = 'y';
      EXPECT_NE(h, Hash64(mod.data(), mod.size()))
          << "len " << len << " byte " << i;
    }
  }
}

TEST(Hash64Test, WordHashSpreadsSequentialKeys) {
  // Sequential int64 keys (the common join-key shape) must not cluster:
  // check all 2^16 low-bit buckets get hit over 1M sequential keys.
  std::vector<int> buckets(1 << 16, 0);
  for (uint64_t v = 0; v < 1000000; ++v) {
    ++buckets[HashWord64(v) & 0xFFFF];
  }
  int empty = 0;
  for (int c : buckets) empty += c == 0;
  EXPECT_EQ(empty, 0);
}

// --- FlatIndex ------------------------------------------------------------

/// Build an index over int64 keys with the identity hash replaced by a
/// controllable per-row hash vector.
TEST(FlatIndexTest, BuildFindChains) {
  const std::vector<int64_t> keys = {7, 3, 7, 9, 3, 7};
  std::vector<uint64_t> hashes;
  for (int64_t k : keys) hashes.push_back(HashWord64(static_cast<uint64_t>(k)));
  auto equal_rows = [&](int64_t a, int64_t b) { return keys[a] == keys[b]; };

  FlatIndex index;
  index.Build(hashes, [](int64_t) { return true; }, equal_rows);
  EXPECT_EQ(index.num_keys(), 3);

  // Chain of key 7 in row order.
  std::vector<int64_t> chain;
  for (int64_t r = index.Find(HashWord64(7), [&](int64_t row) { return keys[row] == 7; });
       r != FlatIndex::kNone; r = index.Next(r)) {
    chain.push_back(r);
  }
  EXPECT_EQ(chain, (std::vector<int64_t>{0, 2, 5}));

  EXPECT_EQ(index.Find(HashWord64(1234), [&](int64_t) { return true; }),
            FlatIndex::kNone);
}

TEST(FlatIndexTest, KeepPredicateFiltersRows) {
  const std::vector<int64_t> keys = {1, 2, 1, 2};
  std::vector<uint64_t> hashes;
  for (int64_t k : keys) hashes.push_back(HashWord64(static_cast<uint64_t>(k)));
  FlatIndex index;
  index.Build(hashes, [](int64_t row) { return row != 2; },
              [&](int64_t a, int64_t b) { return keys[a] == keys[b]; });
  std::vector<int64_t> chain;
  for (int64_t r = index.Find(HashWord64(1), [&](int64_t row) { return keys[row] == 1; });
       r != FlatIndex::kNone; r = index.Next(r)) {
    chain.push_back(r);
  }
  EXPECT_EQ(chain, (std::vector<int64_t>{0}));
}

TEST(FlatIndexTest, AllKeysOneHashResolvedByEquality) {
  // Adversarial: every row hashes to 42; distinct keys must land in
  // distinct slots purely through the equality fallback.
  const int64_t n = 200;
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < n; ++i) keys.push_back(i % 50);
  std::vector<uint64_t> hashes(static_cast<size_t>(n), 42);
  auto equal_rows = [&](int64_t a, int64_t b) { return keys[a] == keys[b]; };

  FlatIndex index;
  index.Build(hashes, [](int64_t) { return true; }, equal_rows);
  EXPECT_EQ(index.num_keys(), 50);
  for (int64_t want = 0; want < 50; ++want) {
    std::vector<int64_t> chain;
    for (int64_t r = index.Find(42, [&](int64_t row) { return keys[row] == want; });
         r != FlatIndex::kNone; r = index.Next(r)) {
      chain.push_back(r);
    }
    ASSERT_EQ(chain.size(), 4u) << "key " << want;
    for (size_t c = 1; c < chain.size(); ++c) {
      EXPECT_LT(chain[c - 1], chain[c]) << "chain must stay in row order";
    }
  }
}

TEST(FlatIndexTest, PartitionedBuildMatchesSerial) {
  const int64_t n = 100000;
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (int64_t i = 0; i < n; ++i) keys.push_back((i * 7919) % 1000);
  std::vector<uint64_t> hashes;
  hashes.reserve(n);
  for (int64_t k : keys) hashes.push_back(HashWord64(static_cast<uint64_t>(k)));
  auto equal_rows = [&](int64_t a, int64_t b) { return keys[a] == keys[b]; };

  FlatIndex serial;
  serial.Build(hashes, [](int64_t) { return true; }, equal_rows);

  sim::ParallelOptions options;
  options.max_workers = 4;
  FlatIndex parallel;
  ASSERT_TRUE(parallel
                  .BuildPartitioned(hashes, [](int64_t) { return true; },
                                    equal_rows, options)
                  .ok());
  EXPECT_GT(parallel.num_partitions(), 1);
  EXPECT_EQ(parallel.num_keys(), serial.num_keys());

  for (int64_t want = 0; want < 1000; ++want) {
    auto probe = [&](int64_t row) { return keys[row] == want; };
    const uint64_t h = HashWord64(static_cast<uint64_t>(want));
    int64_t a = serial.Find(h, probe);
    int64_t b = parallel.Find(h, probe);
    while (a != FlatIndex::kNone || b != FlatIndex::kNone) {
      ASSERT_EQ(a, b) << "chains diverge for key " << want;
      a = serial.Next(a);
      b = parallel.Next(b);
    }
  }
}

TEST(FlatIndexTest, PlanPartitionsRespectsFloors) {
  sim::ParallelOptions options;
  options.max_workers = 8;
  EXPECT_EQ(FlatIndex::PlanPartitions(1000, options), 1);  // too small
  EXPECT_EQ(FlatIndex::PlanPartitions(1 << 20, options), 8);
  options.max_workers = 1;
  EXPECT_EQ(FlatIndex::PlanPartitions(1 << 20, options), 1);
  options.max_workers = 6;  // non-power-of-two workers round up to pow2
  EXPECT_EQ(FlatIndex::PlanPartitions(1 << 20, options), 8);
  options.max_workers = 256;  // hard cap
  EXPECT_EQ(FlatIndex::PlanPartitions(100 << 20, options), 64);
}

// --- FlatGrouper ----------------------------------------------------------

TEST(FlatGrouperTest, DenseFirstSeenIds) {
  const std::vector<int64_t> keys = {5, 8, 5, 1, 8, 5};
  FlatGrouper grouper;
  auto equal_rows = [&](int64_t a, int64_t b) { return keys[a] == keys[b]; };
  std::vector<int64_t> ids;
  for (size_t i = 0; i < keys.size(); ++i) {
    ids.push_back(grouper.FindOrInsert(
        HashWord64(static_cast<uint64_t>(keys[i])), static_cast<int64_t>(i),
        equal_rows));
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(grouper.num_groups(), 3);
  EXPECT_EQ(grouper.representatives(), (std::vector<int64_t>{0, 1, 3}));
}

TEST(FlatGrouperTest, GrowthKeepsGroupsStable) {
  // Insert enough distinct keys to force several doublings, with
  // duplicates interleaved; ids must stay dense and first-seen.
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 10000; ++i) {
    keys.push_back(i % 3000);
  }
  FlatGrouper grouper;
  auto equal_rows = [&](int64_t a, int64_t b) { return keys[a] == keys[b]; };
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t id = grouper.FindOrInsert(
        HashWord64(static_cast<uint64_t>(keys[i])), static_cast<int64_t>(i),
        equal_rows);
    EXPECT_EQ(id, keys[i] % 3000);  // key k is the (k+1)-th distinct
  }
  EXPECT_EQ(grouper.num_groups(), 3000);
}

TEST(FlatGrouperTest, ConstantHashStillGroupsCorrectly) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 500; ++i) keys.push_back(i % 37);
  FlatGrouper grouper;
  auto equal_rows = [&](int64_t a, int64_t b) { return keys[a] == keys[b]; };
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(grouper.FindOrInsert(42, static_cast<int64_t>(i), equal_rows),
              keys[i]);
  }
  EXPECT_EQ(grouper.num_groups(), 37);
}

// --- StringInterner -------------------------------------------------------

TEST(StringInternerTest, InternAndHeterogeneousLookup) {
  StringInterner interner;
  EXPECT_EQ(interner.FindOrInsert("alpha"), 0);
  EXPECT_EQ(interner.FindOrInsert("beta"), 1);
  EXPECT_EQ(interner.FindOrInsert("alpha"), 0);
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner.View(1), "beta");

  std::string probe = "beta";
  EXPECT_EQ(interner.Find(std::string_view(probe)), 1);
  EXPECT_EQ(interner.Find("gamma"), StringInterner::kNone);
  EXPECT_EQ(interner.ToStrings(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(StringInternerTest, GrowthAndArenaReallocationSafe) {
  StringInterner interner;
  std::vector<std::string> inserted;
  for (int i = 0; i < 5000; ++i) {
    inserted.push_back("key_" + std::to_string(i) + std::string(i % 17, 'p'));
    ASSERT_EQ(interner.FindOrInsert(inserted.back()), i);
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(interner.Find(inserted[static_cast<size_t>(i)]), i);
    ASSERT_EQ(interner.View(i), inserted[static_cast<size_t>(i)]);
  }
}

TEST(StringInternerTest, EmptyStringIsAKey) {
  StringInterner interner;
  EXPECT_EQ(interner.FindOrInsert(""), 0);
  EXPECT_EQ(interner.FindOrInsert("x"), 1);
  EXPECT_EQ(interner.Find(""), 0);
  EXPECT_EQ(interner.View(0), "");
}

// --- forced-collision kernel adversaries ----------------------------------

col::TablePtr AdversaryTable() {
  return MakeTable(
      {{"k", I64({3, 1, 3, 2, 1, 3, 4, 2}, {true, true, true, true, true, true,
                                            false, true})},
       {"s", Str({"a", "b", "a", "c", "b", "d", "a", "c"})},
       {"v", I64({10, 20, 30, 40, 50, 60, 70, 80})}});
}

TEST(ForcedCollisionTest, JoinUnchanged) {
  auto left = AdversaryTable();
  auto right = MakeTable({{"k", I64({1, 2, 3, 3})},
                          {"p", I64({100, 200, 300, 301})}});
  for (JoinType type : {JoinType::kInner, JoinType::kLeft}) {
    JoinOptions opts;
    opts.type = type;
    const auto expected = test::OracleJoin(left, right, "k", "k", type);
    for (const auto& parallel : test::WorkerSweep()) {
      SCOPED_TRACE(test::SweepLabel(parallel));
      ExpectSameTable(expected,
                      HashJoin(left, right, "k", "k", opts, parallel).ValueOrDie());
      ScopedForcedHashCollisions forced;
      ExpectSameTable(expected,
                      HashJoin(left, right, "k", "k", opts, parallel).ValueOrDie());
    }
  }
}

TEST(ForcedCollisionTest, GroupByUnchanged) {
  auto t = AdversaryTable();
  std::vector<AggSpec> aggs = {{"v", AggKind::kSum, "s"},
                               {"v", AggKind::kCount, "n"}};
  const auto expected = test::OracleGroupBy(t, {"k"}, aggs);
  for (const auto& parallel : test::WorkerSweep()) {
    SCOPED_TRACE(test::SweepLabel(parallel));
    ExpectSameTable(expected, GroupBy(t, {"k"}, aggs, parallel).ValueOrDie());
    ScopedForcedHashCollisions forced;
    ExpectSameTable(expected, GroupBy(t, {"k"}, aggs, parallel).ValueOrDie());
  }
}

TEST(ForcedCollisionTest, DedupUnchanged) {
  auto t = AdversaryTable();
  const auto expected = test::OracleDropDuplicates(t, {"k", "s"});
  for (const auto& parallel : test::WorkerSweep()) {
    SCOPED_TRACE(test::SweepLabel(parallel));
    ExpectSameTable(expected, DropDuplicates(t, {"k", "s"}, parallel).ValueOrDie());
    ScopedForcedHashCollisions forced;
    ExpectSameTable(expected, DropDuplicates(t, {"k", "s"}, parallel).ValueOrDie());
  }
}

TEST(ForcedCollisionTest, EncodeAndPivotUnchanged) {
  auto t = AdversaryTable();
  auto expected_dummies = GetDummies(t, "s").ValueOrDie();
  auto expected_pivot =
      PivotTable(t, "k", "s", "v", AggKind::kSum).ValueOrDie();
  ScopedForcedHashCollisions forced;
  ExpectTablesEqual(expected_dummies, GetDummies(t, "s").ValueOrDie());
  ExpectTablesEqual(expected_pivot,
                    PivotTable(t, "k", "s", "v", AggKind::kSum).ValueOrDie());
}

}  // namespace
}  // namespace bento::kern
