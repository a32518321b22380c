//===- support/ThreadPool.h - Deterministic parallel execution -*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable worker pool plus chunked parallelFor / parallelReduce helpers
/// used by every oracle-bound sweep in the pipeline (constraint
/// construction, the generate-check-constrain check phase, full-domain
/// validation). The design requirement is *determinism*: a computation must
/// produce bit-identical results for any thread count, including 1.
/// Two rules guarantee it:
///
///   1. The partition of [0, N) into chunks depends only on N and the
///      requested chunk size -- never on the thread count or on which
///      worker picks up which chunk.
///   2. Per-chunk results are stored by chunk index and merged serially in
///      ascending index order after the barrier, never in completion order.
///      (For a serial run the merge visits the same chunks in the same
///      order, so even non-associative merges agree.) A reduction over more
///      than MaxFanOut chunks runs them in waves, each merged after its own
///      barrier, which keeps the same order.
///
/// Threading knobs: an explicit per-call thread count wins; a count of 0
/// defers to the RFP_THREADS environment variable, and failing that to
/// std::thread::hardware_concurrency().
///
/// Nested use is safe: a parallelFor issued from inside a worker thread
/// runs inline on that worker (same chunk partition, same merge order), so
/// library code never needs to know whether its caller is already parallel.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SUPPORT_THREADPOOL_H
#define RFP_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace rfp {

/// Persistent worker pool executing one chunked job at a time.
class ThreadPool {
public:
  /// Resolves a requested thread count: explicit > 0 wins, then the
  /// RFP_THREADS environment variable (decimal digits, clamped to 1024; 0
  /// or a malformed value such as "4x" or "1e3" is ignored with a
  /// warning for the latter), then hardware_concurrency() (minimum 1).
  static unsigned resolveThreads(unsigned Requested);

  /// The process-wide pool, sized to resolveThreads(0) at first use.
  static ThreadPool &global();

  explicit ThreadPool(unsigned NumWorkers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Runs ChunkFn(0) .. ChunkFn(NumChunks - 1), each exactly once, using at
  /// most \p MaxParticipants threads (the calling thread participates and
  /// counts toward the cap). Blocks until all chunks are done. The first
  /// exception thrown by any chunk is rethrown on the calling thread after
  /// the barrier. Calls from inside a worker run all chunks inline.
  void run(size_t NumChunks, const std::function<void(size_t)> &ChunkFn,
           unsigned MaxParticipants);

  /// True when the calling thread is one of this pool's workers (used to
  /// detect nested parallel sections).
  static bool insideWorker();

private:
  void workerLoop();

  struct Impl;
  Impl *State;
  std::vector<std::thread> Workers;
};

/// Fixed partition of [0, N) into chunks of \p ChunkSize (last chunk may be
/// short). The partition depends only on N and ChunkSize, per the
/// determinism rule above.
inline size_t numChunksFor(size_t N, size_t ChunkSize) {
  return ChunkSize == 0 ? 0 : (N + ChunkSize - 1) / ChunkSize;
}

/// The default fan-out: at most this many chunks per job.
constexpr size_t MaxFanOut = 256;

/// Default chunk size: a fixed fan-out of at most MaxFanOut chunks
/// regardless of thread count, so the partition (and therefore any reduce
/// merge shape) is identical on every machine.
inline size_t defaultChunkSize(size_t N) {
  size_t C = (N + MaxFanOut - 1) / MaxFanOut;
  return C == 0 ? 1 : C;
}

/// Invokes Fn(Begin, End) over a fixed partition of [0, N). \p NumThreads
/// follows ThreadPool::resolveThreads; 1 runs serially on the caller with
/// no pool involvement.
void parallelFor(size_t N, const std::function<void(size_t, size_t)> &Fn,
                 unsigned NumThreads = 0, size_t ChunkSize = 0);

/// Chunked reduction: Chunk(Begin, End) produces a partial result per
/// chunk; partials are merged with Merge(Acc, Partial) serially in
/// ascending chunk order, starting from \p Init. Deterministic for any
/// thread count, even when Merge is not associative. The chunks run in
/// waves of at most MaxFanOut, each folded before the next starts, so at
/// most MaxFanOut partials are alive at once; a default partition is one
/// wave, one job.
template <typename T, typename ChunkFnT, typename MergeFnT>
T parallelReduce(size_t N, T Init, ChunkFnT Chunk, MergeFnT Merge,
                 unsigned NumThreads = 0, size_t ChunkSize = 0) {
  if (ChunkSize == 0)
    ChunkSize = defaultChunkSize(N);
  const size_t NumChunks = numChunksFor(N, ChunkSize);
  std::vector<T> Partials(std::min(NumChunks, MaxFanOut));
  T Acc = std::move(Init);
  for (size_t Wave = 0; Wave < NumChunks; Wave += MaxFanOut) {
    const size_t WaveBegin = Wave * ChunkSize;
    const size_t WaveChunks = std::min(MaxFanOut, NumChunks - Wave);
    parallelFor(
        std::min(N - WaveBegin, WaveChunks * ChunkSize),
        [&](size_t Begin, size_t End) {
          Partials[Begin / ChunkSize] =
              Chunk(WaveBegin + Begin, WaveBegin + End);
        },
        NumThreads, ChunkSize);
    for (size_t I = 0; I < WaveChunks; ++I)
      Acc = Merge(std::move(Acc), std::move(Partials[I]));
  }
  return Acc;
}

} // namespace rfp

#endif // RFP_SUPPORT_THREADPOOL_H
