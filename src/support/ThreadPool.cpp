//===- support/ThreadPool.cpp - Deterministic parallel execution ----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/ShardFile.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>

using namespace rfp;

namespace {
/// Set while a thread is a pool worker, or while the submitting thread is
/// inside run() processing chunks itself. Either way a nested parallel
/// section must execute inline: the pool runs one job at a time, so
/// re-entering run() would deadlock on JobMutex.
thread_local bool InParallelSection = false;
} // namespace

struct ThreadPool::Impl {
  std::mutex M;
  std::condition_variable WorkCV; ///< Workers park here between jobs.
  std::condition_variable DoneCV; ///< The submitter waits here.

  /// Serializes run() calls from distinct external threads.
  std::mutex JobMutex;

  bool ShuttingDown = false;
  uint64_t JobGeneration = 0;

  // --- Current job (valid between publish and retire; guarded by M for
  // --- publication, then read-only while workers hold a participation). ---
  const std::function<void(size_t)> *ChunkFn = nullptr;
  size_t NumChunks = 0;
  unsigned MaxHelpers = 0;   ///< Workers allowed beyond the submitter.
  unsigned HelpersJoined = 0; ///< Guarded by M.
  unsigned ActiveWorkers = 0; ///< Workers currently processing; guarded by M.
  std::atomic<size_t> NextChunk{0};
  std::atomic<size_t> DoneChunks{0};
  std::atomic<bool> HasError{false};

  // First error by *chunk index* (not completion order), so the rethrown
  // exception is deterministic when several chunks throw.
  std::mutex ErrMutex;
  size_t ErrChunk = 0;
  std::exception_ptr Err;

  void recordError(size_t Chunk, std::exception_ptr E) {
    std::lock_guard<std::mutex> L(ErrMutex);
    if (!Err || Chunk < ErrChunk) {
      Err = std::move(E);
      ErrChunk = Chunk;
    }
    HasError.store(true, std::memory_order_release);
  }

  /// Claims and executes chunks until the job is exhausted. Once any chunk
  /// has thrown, the remaining chunks are claimed but skipped (they still
  /// count as done so the barrier completes).
  void processChunks() {
    while (true) {
      size_t C = NextChunk.fetch_add(1, std::memory_order_relaxed);
      if (C >= NumChunks)
        return;
      if (!HasError.load(std::memory_order_acquire)) {
        try {
          (*ChunkFn)(C);
        } catch (...) {
          recordError(C, std::current_exception());
        }
      }
      size_t Done = DoneChunks.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (Done == NumChunks) {
        // Lock-then-notify so the submitter cannot miss the wakeup.
        std::lock_guard<std::mutex> L(M);
        DoneCV.notify_all();
      }
    }
  }
};

unsigned ThreadPool::resolveThreads(unsigned Requested) {
  if (Requested > 0)
    return Requested;
  if (const char *Env = std::getenv("RFP_THREADS")) {
    // Decimal digits only, as every numeric setting: 0 keeps the default,
    // and so does a malformed value (reported once -- this runs per solve).
    uint64_t V = 0;
    if (parseCount(Env, 0, UINT64_MAX, V)) {
      if (V > 0)
        return static_cast<unsigned>(std::min<uint64_t>(V, 1024));
    } else {
      static std::atomic<bool> Warned{false};
      if (!Warned.exchange(true))
        telemetry::logf(telemetry::LogLevel::Warn, "threadpool",
                        "ignoring malformed RFP_THREADS value \"%s\"", Env);
    }
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? HW : 1;
}

ThreadPool &ThreadPool::global() {
  // Sized generously (at least 4) so explicit NumThreads requests above the
  // hardware count -- e.g. the determinism tests pinning {1, 4} -- still get
  // real concurrency on small machines. Idle workers park on a condvar.
  static ThreadPool Pool(std::max(4u, resolveThreads(0)));
  return Pool;
}

ThreadPool::ThreadPool(unsigned NumWorkers) : State(new Impl) {
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(State->M);
    State->ShuttingDown = true;
  }
  State->WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
  delete State;
}

bool ThreadPool::insideWorker() { return InParallelSection; }

void ThreadPool::workerLoop() {
  InParallelSection = true;
  Impl &S = *State;
  uint64_t SeenGeneration = 0;
  std::unique_lock<std::mutex> L(S.M);
  while (true) {
    S.WorkCV.wait(L, [&] {
      return S.ShuttingDown ||
             (S.ChunkFn && S.JobGeneration != SeenGeneration);
    });
    if (S.ShuttingDown)
      return;
    SeenGeneration = S.JobGeneration;
    if (S.HelpersJoined >= S.MaxHelpers)
      continue; // Job is at its participation cap; wait for the next one.
    ++S.HelpersJoined;
    ++S.ActiveWorkers;
    L.unlock();
    S.processChunks();
    L.lock();
    if (--S.ActiveWorkers == 0)
      S.DoneCV.notify_all();
  }
}

void ThreadPool::run(size_t NumChunks,
                     const std::function<void(size_t)> &ChunkFn,
                     unsigned MaxParticipants) {
  if (NumChunks == 0)
    return;
  if (InParallelSection || MaxParticipants <= 1 || NumChunks == 1 ||
      Workers.empty()) {
    // Inline execution: same chunks, same ascending order.
    for (size_t C = 0; C < NumChunks; ++C)
      ChunkFn(C);
    return;
  }

  // Pool-job telemetry: job count, the chunk fan-out (queue depth at
  // submission), and end-to-end job latency. The handles register once;
  // per job this is three shard updates plus two clock reads -- noise
  // next to the cross-thread wakeup the job already pays for.
  static const telemetry::Counter JobCtr = telemetry::counter("threadpool.jobs");
  static const telemetry::Histogram ChunksHist =
      telemetry::histogram("threadpool.chunks_per_job");
  static const telemetry::Histogram LatencyHist =
      telemetry::histogram("threadpool.job_ms");
  JobCtr.inc();
  ChunksHist.record(static_cast<double>(NumChunks));
  telemetry::Span JobSpan("threadpool.job");
  auto JobStart = std::chrono::steady_clock::now();

  Impl &S = *State;
  std::lock_guard<std::mutex> Job(S.JobMutex);
  {
    std::lock_guard<std::mutex> L(S.M);
    S.ChunkFn = &ChunkFn;
    S.NumChunks = NumChunks;
    S.MaxHelpers = MaxParticipants - 1; // The submitter participates too.
    S.HelpersJoined = 0;
    S.NextChunk.store(0, std::memory_order_relaxed);
    S.DoneChunks.store(0, std::memory_order_relaxed);
    S.HasError.store(false, std::memory_order_relaxed);
    S.Err = nullptr;
    ++S.JobGeneration;
  }
  S.WorkCV.notify_all();

  InParallelSection = true;
  S.processChunks();
  InParallelSection = false;

  {
    std::unique_lock<std::mutex> L(S.M);
    S.DoneCV.wait(L, [&] {
      return S.DoneChunks.load(std::memory_order_acquire) == NumChunks &&
             S.ActiveWorkers == 0;
    });
    S.ChunkFn = nullptr; // Retire the job before JobMutex is released.
  }
  LatencyHist.record(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - JobStart)
                         .count());
  if (S.Err)
    std::rethrow_exception(S.Err);
}

void rfp::parallelFor(size_t N,
                      const std::function<void(size_t, size_t)> &Fn,
                      unsigned NumThreads, size_t ChunkSize) {
  if (N == 0)
    return;
  if (ChunkSize == 0)
    ChunkSize = defaultChunkSize(N);
  size_t NumChunks = numChunksFor(N, ChunkSize);
  auto RunChunk = [&](size_t C) {
    size_t Begin = C * ChunkSize;
    Fn(Begin, std::min(N, Begin + ChunkSize));
  };
  unsigned Threads = ThreadPool::resolveThreads(NumThreads);
  if (Threads <= 1 || NumChunks <= 1 || ThreadPool::insideWorker()) {
    for (size_t C = 0; C < NumChunks; ++C)
      RunChunk(C);
    return;
  }
  ThreadPool::global().run(NumChunks, RunChunk, Threads);
}
