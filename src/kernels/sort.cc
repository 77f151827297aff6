#include "kernels/sort.h"

#include <algorithm>
#include <cmath>

#include "kernels/selection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"

namespace bento::kern {

namespace {

/// One resolved sort key column. Categorical keys precompute a
/// code -> lexicographic-rank table once per dictionary (an argsort of the
/// dictionary entries), so row comparisons become two int loads instead of
/// string compares. Ranks order identically to the entry strings, and
/// dictionary entries are unique (interner-built), so equal rank means
/// equal string — results are bit-identical to comparing decoded strings.
struct KeyColumn {
  ArrayPtr array;
  std::vector<int32_t> ranks;  // per dictionary code; empty unless categorical
};

std::vector<int32_t> DictionaryRanks(const std::vector<std::string>& dict) {
  std::vector<int32_t> order(dict.size());
  for (size_t k = 0; k < dict.size(); ++k) order[k] = static_cast<int32_t>(k);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return dict[static_cast<size_t>(a)] < dict[static_cast<size_t>(b)];
  });
  std::vector<int32_t> ranks(dict.size());
  for (size_t r = 0; r < order.size(); ++r) {
    ranks[static_cast<size_t>(order[r])] = static_cast<int32_t>(r);
  }
  return ranks;
}

/// Three-way comparison of one cell pair under a key; nulls last.
int CompareCell(const KeyColumn& key, int64_t i, int64_t j, bool ascending) {
  const Array& a = *key.array;
  const bool in = a.IsNull(i);
  const bool jn = a.IsNull(j);
  if (in || jn) {
    if (in && jn) return 0;
    return in ? 1 : -1;  // nulls last, independent of direction
  }
  int cmp = 0;
  switch (a.type()) {
    case TypeId::kBool: {
      int l = a.bool_data()[i] != 0;
      int r = a.bool_data()[j] != 0;
      cmp = l < r ? -1 : (l > r ? 1 : 0);
      break;
    }
    case TypeId::kString: {
      std::string_view l = a.GetView(i);
      std::string_view r = a.GetView(j);
      cmp = l < r ? -1 : (l > r ? 1 : 0);
      break;
    }
    case TypeId::kCategorical: {
      const int32_t l = key.ranks[static_cast<size_t>(a.codes_data()[i])];
      const int32_t r = key.ranks[static_cast<size_t>(a.codes_data()[j])];
      cmp = l < r ? -1 : (l > r ? 1 : 0);
      break;
    }
    case TypeId::kFloat64: {
      double l = a.float64_data()[i];
      double r = a.float64_data()[j];
      const bool lnan = std::isnan(l);
      const bool rnan = std::isnan(r);
      if (lnan || rnan) {
        if (lnan && rnan) return 0;
        return lnan ? 1 : -1;  // NaN last like nulls
      }
      cmp = l < r ? -1 : (l > r ? 1 : 0);
      break;
    }
    default: {
      int64_t l = a.int64_data()[i];
      int64_t r = a.int64_data()[j];
      cmp = l < r ? -1 : (l > r ? 1 : 0);
      break;
    }
  }
  return ascending ? cmp : -cmp;
}

struct Comparator {
  const std::vector<KeyColumn>* columns;
  const std::vector<SortKey>* keys;

  bool operator()(int64_t i, int64_t j) const {
    for (size_t k = 0; k < keys->size(); ++k) {
      int cmp = CompareCell((*columns)[k], i, j, (*keys)[k].ascending);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

Result<std::vector<KeyColumn>> ResolveKeyColumns(
    const TablePtr& table, const std::vector<SortKey>& keys) {
  std::vector<KeyColumn> columns;
  for (const SortKey& key : keys) {
    BENTO_ASSIGN_OR_RETURN(auto c, table->GetColumn(key.column));
    KeyColumn kc;
    if (c->type() == TypeId::kCategorical) {
      kc.ranks = DictionaryRanks(*c->dictionary());
    }
    kc.array = std::move(c);
    columns.push_back(std::move(kc));
  }
  return columns;
}

}  // namespace

Result<std::vector<int64_t>> ArgSort(const TablePtr& table,
                                     const std::vector<SortKey>& keys,
                                     const sim::ParallelOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "sort.argsort");
  if (keys.empty()) return Status::Invalid("ArgSort requires at least one key");
  BENTO_ASSIGN_OR_RETURN(auto columns, ResolveKeyColumns(table, keys));
  const int64_t n = table->num_rows();

  int workers = sim::ResolveWorkers(options);
  // Runs beyond the physical thread count cannot sort concurrently and only
  // deepen the merge tree, so real mode caps the fan-out at the hardware
  // (simulated mode keeps one run per virtual worker for the makespan model).
  if (sim::WouldUseRealExecution(options)) {
    workers = std::min(workers, sim::ThreadPool::HardwareParallelism());
  }
  auto ranges = sim::SplitRange(n, workers, /*min_rows_per_chunk=*/4096);
  Comparator cmp{&columns, &keys};
  auto sorted_run = [&](int64_t b, int64_t e) {
    std::vector<int64_t> run(static_cast<size_t>(e - b));
    for (int64_t i = b; i < e; ++i) run[static_cast<size_t>(i - b)] = i;
    std::stable_sort(run.begin(), run.end(), cmp);
    return run;
  };
  if (ranges.size() <= 1) return sorted_run(0, n);

  std::vector<std::vector<int64_t>> runs(ranges.size());
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(ranges.size()),
      [&](int64_t r) {
        auto [b, e] = ranges[static_cast<size_t>(r)];
        runs[static_cast<size_t>(r)] = sorted_run(b, e);
        return Status::OK();
      },
      options));
  return MergeSortedRuns(table, keys, std::move(runs), options);
}

Result<std::vector<int64_t>> MergeSortedRuns(
    const TablePtr& table, const std::vector<SortKey>& keys,
    std::vector<std::vector<int64_t>> runs,
    const sim::ParallelOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "sort.merge_runs");
  if (keys.empty()) {
    return Status::Invalid("MergeSortedRuns requires at least one key");
  }
  BENTO_ASSIGN_OR_RETURN(auto columns, ResolveKeyColumns(table, keys));
  Comparator cmp{&columns, &keys};
  const int workers = sim::ResolveWorkers(options);

  runs.erase(std::remove_if(runs.begin(), runs.end(),
                            [](const std::vector<int64_t>& r) {
                              return r.empty();
                            }),
             runs.end());
  if (runs.empty()) return std::vector<int64_t>{};

  // One [a0,a1) x [b0,b1) -> out[off..) linear merge of a run pair's slice.
  struct Segment {
    const std::vector<int64_t>* a;
    const std::vector<int64_t>* b;
    int64_t a0, a1, b0, b1;
    std::vector<int64_t>* out;
    int64_t off;
  };

  int64_t total_segments = 0;
  while (runs.size() > 1) {
    std::vector<std::vector<int64_t>> next((runs.size() + 1) / 2);
    std::vector<Segment> segments;
    for (size_t p = 0; p + 1 < runs.size(); p += 2) {
      const auto& a = runs[p];
      const auto& b = runs[p + 1];
      auto& out = next[p / 2];
      out.resize(a.size() + b.size());
      const int64_t la = static_cast<int64_t>(a.size());
      const int64_t lb = static_cast<int64_t>(b.size());
      // Balanced splitters: cut A evenly, align B by binary search. Every
      // B row < the pivot merges in an earlier segment; B rows equal to the
      // pivot stay in the pivot's segment, where the merge takes A first —
      // ties across runs resolve to the lower (earlier-rows) run, exactly
      // like one serial stable sort.
      int64_t nseg = std::min<int64_t>((la + lb) / sim::kMorselRows + 1,
                                       static_cast<int64_t>(workers) * 4);
      if (nseg < 1) nseg = 1;
      int64_t prev_a = 0;
      int64_t prev_b = 0;
      for (int64_t s = 1; s <= nseg; ++s) {
        const int64_t a1 = s == nseg ? la : la * s / nseg;
        const int64_t b1 =
            s == nseg ? lb
                      : std::lower_bound(b.begin(), b.end(),
                                         a[static_cast<size_t>(a1)], cmp) -
                            b.begin();
        if (a1 > prev_a || b1 > prev_b) {
          segments.push_back(
              {&a, &b, prev_a, a1, prev_b, b1, &out, prev_a + prev_b});
        }
        prev_a = a1;
        prev_b = b1;
      }
    }
    if (runs.size() % 2 == 1) next.back() = std::move(runs.back());
    total_segments += static_cast<int64_t>(segments.size());
    BENTO_RETURN_NOT_OK(sim::ParallelFor(
        static_cast<int64_t>(segments.size()),
        [&](int64_t s) {
          const Segment& seg = segments[static_cast<size_t>(s)];
          // std::merge takes from B only when strictly smaller: A-on-tie.
          std::merge(seg.a->begin() + seg.a0, seg.a->begin() + seg.a1,
                     seg.b->begin() + seg.b0, seg.b->begin() + seg.b1,
                     seg.out->begin() + seg.off, cmp);
          return Status::OK();
        },
        options));
    runs = std::move(next);
  }
  static obs::Counter* c_segments =
      obs::MetricsRegistry::Global().counter("sort.merge.segments");
  c_segments->Add(static_cast<uint64_t>(total_segments));
  return std::move(runs[0]);
}

Result<TablePtr> SortTable(const TablePtr& table,
                           const std::vector<SortKey>& keys,
                           const sim::ParallelOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto indices, ArgSort(table, keys, options));
  return TakeTable(table, indices, options);
}

namespace {

/// Cross-table cell comparison; mirrors CompareCell but over two arrays.
int CompareCellsAcross(const Array& l, int64_t i, const Array& r, int64_t j,
                       bool ascending) {
  const bool ln = l.IsNull(i);
  const bool rn = r.IsNull(j);
  if (ln || rn) {
    if (ln && rn) return 0;
    return ln ? 1 : -1;
  }
  int cmp = 0;
  switch (l.type()) {
    case TypeId::kBool: {
      int a = l.bool_data()[i] != 0;
      int b = r.bool_data()[j] != 0;
      cmp = a < b ? -1 : (a > b ? 1 : 0);
      break;
    }
    case TypeId::kString: {
      std::string_view a = l.GetView(i);
      std::string_view b = r.GetView(j);
      cmp = a < b ? -1 : (a > b ? 1 : 0);
      break;
    }
    case TypeId::kCategorical: {
      const std::string& a =
          (*l.dictionary())[static_cast<size_t>(l.codes_data()[i])];
      const std::string& b =
          (*r.dictionary())[static_cast<size_t>(r.codes_data()[j])];
      cmp = a < b ? -1 : (a > b ? 1 : 0);
      break;
    }
    case TypeId::kFloat64: {
      double a = l.float64_data()[i];
      double b = r.float64_data()[j];
      const bool anan = std::isnan(a);
      const bool bnan = std::isnan(b);
      if (anan || bnan) {
        if (anan && bnan) return 0;
        return anan ? 1 : -1;
      }
      cmp = a < b ? -1 : (a > b ? 1 : 0);
      break;
    }
    default: {
      int64_t a = l.int64_data()[i];
      int64_t b = r.int64_data()[j];
      cmp = a < b ? -1 : (a > b ? 1 : 0);
      break;
    }
  }
  return ascending ? cmp : -cmp;
}

}  // namespace

Result<int> CompareTableRows(const TablePtr& a, int64_t i, const TablePtr& b,
                             int64_t j, const std::vector<SortKey>& keys) {
  for (const SortKey& key : keys) {
    BENTO_ASSIGN_OR_RETURN(auto ca, a->GetColumn(key.column));
    BENTO_ASSIGN_OR_RETURN(auto cb, b->GetColumn(key.column));
    if (ca->type() != cb->type()) {
      return Status::TypeError("sort key type mismatch across runs");
    }
    int cmp = CompareCellsAcross(*ca, i, *cb, j, key.ascending);
    if (cmp != 0) return cmp;
  }
  return 0;
}

}  // namespace bento::kern
