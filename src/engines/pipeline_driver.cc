#include "engines/pipeline_driver.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "sim/thread_pool.h"

namespace bento::eng {

namespace {

/// BENTO_PIPELINE_WORKERS=N replaces the resolved worker count exactly, not
/// clamped to physical cores (the bit-identity tests run 8 workers on any
/// host). Read per call: benches set it mid-process.
int PinnedWorkers(int resolved) {
  if (const char* env = std::getenv("BENTO_PIPELINE_WORKERS")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<int>(std::min<long long>(v, 64));
  }
  return std::max(1, resolved);
}

}  // namespace

PipelineOptions ResolvePipelineOptions(const frame::ExecPolicy& policy) {
  PipelineOptions out;  // one inline worker
  if (!policy.parallel) return out;
  if (sim::WouldUseRealExecution(policy.parallel_options)) {
    out.workers =
        PinnedWorkers(std::min(sim::ResolveWorkers(policy.parallel_options),
                               sim::ThreadPool::HardwareParallelism()));
    if (out.workers > 1) out.prefetch_depth = 2;
    return out;
  }
  // Simulated session: model the same chunk-parallel schedule in virtual
  // time. The driver runs serially, measures each chunk map, and credits
  // the overlap the session machine's cores would achieve — ParallelFor's
  // simulated-mode accounting lifted to pipeline stages, so the pipeline
  // speedup shows on any host, including single-core runners. Never from a
  // pool worker (nested stages would double-credit), and never without a
  // session (no virtual clock to credit). No prefetch thread either: work
  // done off the consumer thread is invisible to its VirtualTimer.
  sim::Session* session = sim::Session::Current();
  if (session == nullptr || sim::ThreadPool::OnWorkerThread()) return out;
  out.workers = PinnedWorkers(std::min(
      sim::ResolveWorkers(policy.parallel_options), session->cores()));
  out.simulate = out.workers > 1;
  out.schedule = policy.parallel_options.policy;
  out.per_task_dispatch_s = policy.parallel_options.per_task_dispatch_s;
  return out;
}

// ---------------------------------------------------------------------------
// ParallelPipelineDriver
// ---------------------------------------------------------------------------

ParallelPipelineDriver::ParallelPipelineDriver(ChunkStream* inner, MapFn map,
                                                 const PipelineOptions& options)
    : inner_(inner),
      map_(std::move(map)),
      options_(options),
      pool_(sim::MemoryPool::Current()) {
  if (!options_.threaded()) return;
  capacity_ = options_.workers + std::max(options_.readahead, 0);
  active_workers_ = options_.workers;
  threads_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ParallelPipelineDriver::~ParallelPipelineDriver() {
  SettleModeledCredit();  // no-op unless simulate; safety for partial drains
  {
    std::lock_guard<std::mutex> lk(mu_);
    cancelled_ = true;
  }
  cv_room_.notify_all();
  cv_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Result<PendingChunk> ParallelPipelineDriver::Claim(int64_t* seq) {
  std::lock_guard<std::mutex> claim(claim_mu_);
  if (claim_stopped_) return PendingChunk{};
  const double t0 = options_.simulate ? sim::NowSeconds() : 0.0;
  auto pulled = inner_->NextPending();
  if (options_.simulate) sim_io_seconds_.push_back(sim::NowSeconds() - t0);
  if (!pulled.ok()) {
    claim_stopped_ = true;
    *seq = next_claim_seq_++;
    claimed_count_.fetch_add(1, std::memory_order_relaxed);
    return pulled;
  }
  if (pulled->end()) {
    claim_stopped_ = true;
    return pulled;
  }
  *seq = next_claim_seq_++;
  claimed_count_.fetch_add(1, std::memory_order_relaxed);
  return pulled;
}

void ParallelPipelineDriver::WorkerLoop(int index) {
  obs::SetCurrentThreadName("pipeline-worker-" + std::to_string(index));
  (void)obs::InstallThreadSampler();
  sim::MemoryScope scope(pool_);
  static obs::Gauge* inflight_gauge =
      obs::MetricsRegistry::Global().gauge("pipeline.chunks.inflight");
  static obs::Counter* chunk_counter =
      obs::MetricsRegistry::Global().counter("pipeline.chunks");

  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_room_.wait(lk, [&] {
        return cancelled_ || done_claiming_ || inflight_ < capacity_;
      });
      if (cancelled_ || done_claiming_) break;
      ++inflight_;
      inflight_gauge->UpdateMax(static_cast<int64_t>(inflight_));
    }

    int64_t seq = -1;
    auto pulled = Claim(&seq);
    if (pulled.ok() && pulled->end()) {
      std::lock_guard<std::mutex> lk(mu_);
      --inflight_;  // reservation unused: nothing was claimed
      done_claiming_ = true;
      cv_ready_.notify_all();
      cv_room_.notify_all();
      break;
    }

    Result<col::TablePtr> out = col::TablePtr(nullptr);
    if (pulled.ok()) {
      chunk_counter->Increment();
      BENTO_TRACE_SPAN(kEngine, "pipeline.chunk");
      out = DecodeAndMap(pulled.MoveValueUnsafe(), seq);
    } else {
      out = pulled.status();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.emplace(seq, std::move(out));
      cv_ready_.notify_all();
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (--active_workers_ == 0) cv_ready_.notify_all();
}

Result<col::TablePtr> ParallelPipelineDriver::DecodeAndMap(PendingChunk chunk,
                                                           int64_t seq) {
  BENTO_ASSIGN_OR_RETURN(col::TablePtr table, chunk.Decode());
  return map_(std::move(table), seq);
}

void ParallelPipelineDriver::SettleModeledCredit() {
  if (!options_.simulate || sim_credited_ || sim_map_seconds_.empty()) return;
  sim_credited_ = true;
  sim::Session* session = sim::Session::Current();
  if (session == nullptr) return;
  double sum_map = 0.0;
  for (double d : sim_map_seconds_) sum_map += d;
  double sum_io = 0.0;
  for (double d : sim_io_seconds_) sum_io += d;
  // Two-stage pipeline model matching the real executor's shape: a prefetch
  // producer pulls chunks sequentially while `workers` map them. Completion
  // is bounded below by either stage being saturated — all I/O plus the last
  // map's tail, or the map makespan plus the first chunk's fill — and the
  // credit is the overlap relative to the fully serial claim+map loop the
  // driver actually ran.
  const double map_makespan =
      sim::SimulateMakespan(sim_map_seconds_, options_.workers,
                            options_.schedule, options_.per_task_dispatch_s);
  const double io_fill = sim_io_seconds_.empty() ? 0.0 : sim_io_seconds_.front();
  const double map_tail = sim_map_seconds_.back();
  const double modeled =
      std::max(sum_io + map_tail, map_makespan + io_fill);
  const double serial = sum_io + sum_map;
  if (serial > modeled) session->AddTimeCredit(serial - modeled);
}

Result<col::TablePtr> ParallelPipelineDriver::Next() {
  if (!options_.threaded()) {
    // Inline mode: the executor's serial streaming loop — same claim, same
    // map, same delivery order, zero threads. Errors latch the stream
    // terminal, matching the threaded mode's contract. In modeled mode the
    // only addition is a stopwatch around the map; the overlap credit for
    // the whole stage settles once at end of stream.
    if (terminal_) return terminal_error_;
    int64_t seq = -1;
    Result<PendingChunk> pulled = Claim(&seq);
    Result<col::TablePtr> out = col::TablePtr(nullptr);
    if (!pulled.ok()) {
      out = pulled.status();
    } else if (!pulled->end()) {
      if (options_.simulate) {
        static obs::Counter* chunk_counter =
            obs::MetricsRegistry::Global().counter("pipeline.chunks");
        chunk_counter->Increment();
        BENTO_TRACE_SPAN(kEngine, "pipeline.chunk");
        const double t0 = sim::NowSeconds();
        out = DecodeAndMap(pulled.MoveValueUnsafe(), seq);
        sim_map_seconds_.push_back(sim::NowSeconds() - t0);
      } else {
        out = DecodeAndMap(pulled.MoveValueUnsafe(), seq);
      }
    } else {
      SettleModeledCredit();  // end of stream: grant the stage's overlap
    }
    if (!out.ok()) {
      terminal_ = true;
      terminal_error_ = out.status();
    }
    return out;
  }

  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (terminal_) return terminal_error_;
    auto it = ready_.find(next_out_seq_);
    if (it != ready_.end()) {
      Result<col::TablePtr> r = std::move(it->second);
      ready_.erase(it);
      --inflight_;
      ++next_out_seq_;
      cv_room_.notify_all();
      if (!r.ok()) {
        // Deliver the failure at its stream position (exactly where the
        // serial loop would have) and stop the stage.
        terminal_ = true;
        terminal_error_ = r.status();
        cancelled_ = true;
        cv_room_.notify_all();
      }
      return r;
    }
    if (done_claiming_ && active_workers_ == 0) return col::TablePtr(nullptr);
    cv_ready_.wait(lk);
  }
}

// ---------------------------------------------------------------------------
// PrefetchChunkStream
// ---------------------------------------------------------------------------

PrefetchChunkStream::PrefetchChunkStream(std::unique_ptr<ChunkStream> inner,
                                         int depth)
    : inner_(std::move(inner)),
      depth_(std::max(depth, 1)),
      pool_(sim::MemoryPool::Current()) {
  producer_ = std::thread([this] { ProducerLoop(); });
}

PrefetchChunkStream::~PrefetchChunkStream() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    cancelled_ = true;
  }
  cv_consumed_.notify_all();
  cv_produced_.notify_all();
  producer_.join();
}

void PrefetchChunkStream::ProducerLoop() {
  obs::SetCurrentThreadName("pipeline-prefetch");
  (void)obs::InstallThreadSampler();
  sim::MemoryScope scope(pool_);

  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Sleep while the queue is full, or while budget headroom has shrunk
      // below two chunks' worth — but never with an empty queue (the
      // consumer is about to free memory by draining it, so stalling then
      // would deadlock the pipeline against its own readahead). The wait
      // re-checks on a short tick too: headroom can grow from releases on
      // threads that never touch this queue.
      auto has_room = [&] {
        if (cancelled_) return true;
        if (queue_.size() >= static_cast<size_t>(depth_)) return false;
        if (queue_.empty()) return true;
        const uint64_t headroom = pool_->HeadroomBytes();
        return headroom == UINT64_MAX || headroom > 2 * last_chunk_bytes_;
      };
      while (!has_room()) {
        cv_consumed_.wait_for(lk, std::chrono::milliseconds(1));
      }
      if (cancelled_) return;
    }

    Result<PendingChunk> pulled = PendingChunk{};
    {
      BENTO_TRACE_SPAN(kIo, "pipeline.prefetch");
      pulled = inner_->NextPending();
    }
    std::lock_guard<std::mutex> lk(mu_);
    const bool end = !pulled.ok() || pulled->end();
    if (!end) last_chunk_bytes_ = pulled->bytes;
    queue_.push_back(std::move(pulled));
    cv_produced_.notify_all();
    if (end) {
      finished_ = true;
      return;
    }
  }
}

Result<col::TablePtr> PrefetchChunkStream::Next() {
  BENTO_ASSIGN_OR_RETURN(PendingChunk chunk, NextPending());
  return chunk.Decode();
}

Result<PendingChunk> PrefetchChunkStream::NextPending() {
  static obs::Counter* stalls =
      obs::MetricsRegistry::Global().counter("pipeline.prefetch.stalls");
  std::unique_lock<std::mutex> lk(mu_);
  if (queue_.empty() && !finished_) {
    // The consumer outran the prefetcher: compute is waiting on I/O.
    stalls->Increment();
  }
  cv_produced_.wait(lk, [&] { return !queue_.empty() || finished_; });
  if (queue_.empty()) return PendingChunk{};  // finished, drained
  Result<PendingChunk> r = std::move(queue_.front());
  queue_.pop_front();
  cv_consumed_.notify_all();
  return r;
}

}  // namespace bento::eng
