#include "kernels/flat_index.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"
#include "sim/machine.h"
#include "sim/thread_pool.h"

namespace bento::kern {

namespace {

/// Smallest power of two >= v (and >= 16, so probes always have headroom).
uint64_t CapacityFor(int64_t keys) {
  // <= 2/3 load: capacity >= keys * 3 / 2.
  uint64_t want = static_cast<uint64_t>(keys) + (static_cast<uint64_t>(keys) >> 1);
  uint64_t cap = 16;
  while (cap < want) cap <<= 1;
  return cap;
}

std::atomic<bool> g_forced_collisions{false};

}  // namespace

namespace detail {

bool ForcedHashCollisionsActive() {
  return g_forced_collisions.load(std::memory_order_relaxed);
}

void SetForcedHashCollisions(bool active) {
  g_forced_collisions.store(active, std::memory_order_relaxed);
}

}  // namespace detail

int FlatIndex::PlanPartitions(int64_t n, const sim::ParallelOptions& options) {
  int workers = sim::ResolveWorkers(options);
  // Partition fan-out multiplies hash-table and scatter work, so in real
  // mode it must track the *physical* machine: more partitions than
  // hardware threads is pure amplification (the seed ran 4 partitions on a
  // 1-core host and went 4.5x slower than serial). Simulated mode keeps
  // partitions == virtual workers — the fan-out is what the paper's
  // engines schedule, and makespan credit models the overlap.
  if (sim::WouldUseRealExecution(options)) {
    workers = std::min(workers, sim::ThreadPool::HardwareParallelism());
  }
  if (workers <= 1 || n < 8192) return 1;
  int parts = 1;
  while (parts < workers && parts < 64 && n / (parts * 2) >= 4096) {
    parts *= 2;
  }
  return parts;
}

int FlatIndex::PartShiftFor(int parts) {
  int bits = 0;
  while ((1 << bits) < parts) ++bits;
  return 64 - bits;
}

Result<RadixRows> RadixRows::Scatter(const std::vector<uint64_t>& hashes,
                                     int parts,
                                     const sim::ParallelOptions& options) {
  RadixRows out;
  out.parts_ = parts;
  out.rows_ = static_cast<int64_t>(hashes.size());
  if (parts <= 1) return out;
  const int shift = FlatIndex::PartShiftFor(parts);
  const auto morsels = sim::MorselRanges(out.rows_, sim::ResolveWorkers(options));
  out.morsels_ = morsels.size();
  out.buckets_.assign(morsels.size() * static_cast<size_t>(parts), {});
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(morsels.size()),
      [&](int64_t m) -> Status {
        const auto [b, e] = morsels[static_cast<size_t>(m)];
        std::vector<int64_t>* local =
            &out.buckets_[static_cast<size_t>(m) * static_cast<size_t>(parts)];
        for (int p = 0; p < parts; ++p) {
          local[p].reserve(static_cast<size_t>((e - b) / parts + 8));
        }
        for (int64_t i = b; i < e; ++i) {
          local[hashes[static_cast<size_t>(i)] >> shift].push_back(i);
        }
        return Status::OK();
      },
      options));
  return out;
}

void FlatIndex::Part::Reset(int64_t expected_rows) {
  keys = 0;
  probes = 0;
  collisions = 0;
  const uint64_t cap = CapacityFor(expected_rows);
  mask = cap - 1;
  slots.assign(cap, Slot());
}

void FlatIndex::ReportBuildStats() const {
  int64_t probes = 0;
  int64_t collisions = 0;
  for (const Part& p : parts_) {
    probes += p.probes;
    collisions += p.collisions;
  }
  static obs::Counter* c_probes =
      obs::MetricsRegistry::Global().counter("flat_index.build_probes");
  static obs::Counter* c_collisions =
      obs::MetricsRegistry::Global().counter("flat_index.build_collisions");
  c_probes->Add(static_cast<uint64_t>(probes));
  c_collisions->Add(static_cast<uint64_t>(collisions));
}

FlatGrouper::~FlatGrouper() {
  if (probes_ == 0) return;
  static obs::Counter* c_probes =
      obs::MetricsRegistry::Global().counter("flat_grouper.probes");
  static obs::Counter* c_collisions =
      obs::MetricsRegistry::Global().counter("flat_grouper.collisions");
  c_probes->Add(static_cast<uint64_t>(probes_));
  c_collisions->Add(static_cast<uint64_t>(collisions_));
}

void FlatGrouper::Reset(int64_t expected_groups) {
  num_groups_ = 0;
  representatives_.clear();
  const uint64_t cap = CapacityFor(expected_groups < 16 ? 16 : expected_groups);
  mask_ = cap - 1;
  slots_.assign(cap, Slot());
}

void FlatGrouper::Grow() {
  const uint64_t cap = (mask_ + 1) << 1;
  std::vector<Slot> fresh(cap);
  const uint64_t mask = cap - 1;
  for (const Slot& slot : slots_) {
    if (slot.group == kNone) continue;
    uint64_t s = slot.hash & mask;
    while (fresh[s].group != kNone) s = (s + 1) & mask;
    fresh[s] = slot;
  }
  slots_ = std::move(fresh);
  mask_ = mask;
}

void StringInterner::Reset(int64_t expected) {
  arena_.clear();
  offsets_.assign(1, 0);
  hashes_.clear();
  const uint64_t cap = CapacityFor(expected < 16 ? 16 : expected);
  mask_ = cap - 1;
  slots_.assign(cap, Slot());
}

uint64_t StringInterner::HashOf(std::string_view s) const {
  // The forced-collision test mode funnels every string into one slot
  // cluster so probe/equality fallback paths get exercised.
  if (detail::ForcedHashCollisionsActive()) return 42;
  return Hash64(s);
}

int32_t StringInterner::FindOrInsert(std::string_view s) {
  if (size() * 3 >= static_cast<int64_t>(slots_.size()) * 2) Grow();
  const uint64_t h = HashOf(s);
  uint64_t i = h & mask_;
  while (true) {
    Slot& slot = slots_[i];
    if (slot.id == kNone) {
      const int32_t id = static_cast<int32_t>(size());
      arena_.append(s);
      offsets_.push_back(static_cast<int64_t>(arena_.size()));
      hashes_.push_back(h);
      slot.hash = h;
      slot.id = id;
      return id;
    }
    if (slot.hash == h && View(slot.id) == s) return slot.id;
    i = (i + 1) & mask_;
  }
}

int32_t StringInterner::Find(std::string_view s) const {
  const uint64_t h = HashOf(s);
  uint64_t i = h & mask_;
  while (true) {
    const Slot& slot = slots_[i];
    if (slot.id == kNone) return kNone;
    if (slot.hash == h && View(slot.id) == s) return slot.id;
    i = (i + 1) & mask_;
  }
}

void StringInterner::Grow() {
  const uint64_t cap = (mask_ + 1) << 1;
  std::vector<Slot> fresh(cap);
  const uint64_t mask = cap - 1;
  for (const Slot& slot : slots_) {
    if (slot.id == kNone) continue;
    uint64_t s = slot.hash & mask;
    while (fresh[s].id != kNone) s = (s + 1) & mask;
    fresh[s] = slot;
  }
  slots_ = std::move(fresh);
  mask_ = mask;
}

std::vector<std::string> StringInterner::ToStrings() const {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(size()));
  for (int32_t id = 0; id < static_cast<int32_t>(size()); ++id) {
    out.emplace_back(View(id));
  }
  return out;
}

}  // namespace bento::kern
