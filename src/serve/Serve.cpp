//===- serve/Serve.cpp - Batched libm serving front-end -------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Implementation notes.
//
// Queues. One bounded queue per (function, scheme) variant -- 24 slots,
// of which the unavailable ones (log10/Knuth) reject at submit. A queue
// holds *slices*: (request, offset, length) views into submitted input
// spans, so one oversized request is drained as several batches and many
// small requests coalesce into one batch without copying anything at
// submit time. All queues share one mutex: the critical sections are
// pointer pushes and drains (no evaluation, no copying), and the whole
// point of the layer is that kernel work dwarfs queue bookkeeping. Each
// queue's depth and flush deadline live in one compact array of heads,
// apart from the slice deques, so a drainer's scan reads 24 small entries
// rather than the deque headers a submitter has just written; a running
// total of pending elements makes the idle test O(1).
//
// Draining. A worker picks the readiest queue (largest backlog first so
// deep queues drain toward full ISA-width batches), cuts up to
// MaxBatchElems elements, and releases the lock before touching any
// element data. It then gathers the slices' inputs into a staging buffer,
// runs ONE evalBatch over the whole thing, and scatters H back, rounding
// each slice into its request's format and mode with one roundBatch.
// Scatters of different slices of one request write disjoint ranges, so
// no lock is held during evaluation or scatter.
//
// Record ownership. submit() allocates the request's record and hands it
// to its queue; slices carry a plain pointer to it. The record counts its
// unscattered elements down, and the scatterer that brings the count to
// zero -- by then every other slice of the request has been written --
// fulfills the promise and frees the record. No other thread touches it
// afterwards, so the countdown is the only ownership state.
//
// Readiness. A queue is ready when it holds TargetBatchElems elements,
// when its oldest slice has aged past the flush deadline, during flush(),
// and at shutdown. A drainer that finds nothing ready parks on a
// condition variable: untimed when nothing is pending, otherwise with a
// timed wait armed for the earliest pending deadline. Every parked
// drainer arms for that same deadline, so whichever gets a CPU first
// drains it and the rest find nothing (serve.wakeups_idle counts them):
// on a shared host one armed drainer alone missed deadlines by
// milliseconds whenever its CPU was slow to wake. Each drainer runs with
// a 1 us timer slack, so its wait ends at the deadline rather than up to
// the kernel's default 50 us later.
//
// Wake rule. A drainer is woken (notify_one) only when a push makes a
// queue ready (it crosses TargetBatchElems) or a cut leaves a ready
// remainder, or when a push or a remainder creates a queue deadline
// earlier than every parked drainer's armed wait -- the first pending
// element on an idle server, or a submit whose SubmitTime, read before
// the lock, precedes a cut remainder's restarted clock. Other submits
// wake nobody. This loses no deadline: a queue deadline is only
// ever created by a push into an empty queue or by a cut's remainder, and
// at that moment either some parked drainer is armed no later than it --
// it wakes by then, rescans, and re-arms no later than it -- or a drainer
// is woken to rescan after the change, or no drainer is parked and every
// one rescans when its batch is done. A deadline can therefore be late
// only while every drainer that could serve it is running a batch, as
// before.
//
// Shutdown. The destructor marks stopping, wakes everyone, and joins;
// stopping makes every non-empty queue ready, and workers only exit once
// all queues are empty, so every accepted future is fulfilled. submit()
// after shutdown begins fails the future rather than blocking.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "libm/Batch.h"
#include "support/ShardFile.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

using namespace rfp;
using namespace rfp::serve;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int NumVariants = 6 * 4;

/// Timer slack of the drainer threads: how late the kernel may end their
/// timed waits (its default is 50 us, a quarter of the default deadline).
constexpr unsigned long DrainerTimerSlackNs = 1000;

int variantIndex(ElemFunc F, EvalScheme S) {
  return static_cast<int>(F) * 4 + static_cast<int>(S);
}

/// One submitted request while in flight.
struct PendingReq {
  Result Res;
  std::promise<Result> Promise;
  const float *In = nullptr;
  FPFormat Format = FPFormat::float32();
  RoundingMode Mode = RoundingMode::NearestEven;
  Clock::time_point SubmitTime;
  /// Elements not yet scattered; the scatterer that reaches zero
  /// fulfills the promise and frees the record.
  std::atomic<size_t> Remaining{0};
};

struct Slice {
  PendingReq *Req = nullptr;
  size_t Off = 0;
  size_t Len = 0;
};

/// What the drainers' scans read of one queue.
struct QueueHead {
  size_t Elems = 0;
  /// Flush deadline of the front slice (valid while Elems > 0).
  Clock::time_point Due;
};

} // namespace

struct Server::Impl {
  ServerOptions Opts;
  Clock::duration FlushDeadline{};

  mutable std::mutex Mu;
  std::condition_variable WorkCV;     // workers: something may be ready
  std::condition_variable CapacityCV; // submitters: space freed
  std::condition_variable IdleCV;     // flush(): drained and quiescent
  QueueHead Heads[NumVariants];
  std::deque<Slice> Slices[NumVariants];
  size_t PendingElems = 0; // sum of Heads[*].Elems
  /// Per drainer: the time its parked wait is armed for; max() while it
  /// runs or waits untimed.
  std::vector<Clock::time_point> Armed;
  bool Stopping = false;
  int Flushing = 0; // flush() calls in progress
  int InFlight = 0; // batches cut but not yet scattered

  // Exact per-server totals (the telemetry registry is process-global).
  std::atomic<uint64_t> StatRequests{0}, StatElems{0}, StatBatches{0},
      StatCoalesced{0}, StatWakeups{0}, StatIdleWakeups{0};

  // Registered once; updates are lock-free thread-local shards.
  telemetry::Counter CRequests = telemetry::counter("serve.requests");
  telemetry::Counter CElems = telemetry::counter("serve.elems");
  telemetry::Counter CBatches = telemetry::counter("serve.batches");
  telemetry::Counter CCoalesced = telemetry::counter("serve.batch_coalesced");
  telemetry::Counter CWakeups = telemetry::counter("serve.wakeups");
  telemetry::Counter CIdleWakeups = telemetry::counter("serve.wakeups_idle");
  telemetry::Histogram HWidth = telemetry::histogram("serve.batch_width");
  telemetry::Histogram HDepth = telemetry::histogram("serve.queue_depth");
  telemetry::Histogram HLatency =
      telemetry::histogram("serve.request_latency_us");
  telemetry::Counter CFunc[6] = {
      telemetry::counter("serve.requests.exp"),
      telemetry::counter("serve.requests.exp2"),
      telemetry::counter("serve.requests.exp10"),
      telemetry::counter("serve.requests.log"),
      telemetry::counter("serve.requests.log2"),
      telemetry::counter("serve.requests.log10"),
  };

  std::vector<std::thread> Workers;

  explicit Impl(ServerOptions O) : Opts(O) {
    unsigned DeadlineUs = Opts.FlushDeadlineUs;
    if (const char *Env = std::getenv("RFP_SERVE_FLUSH_US")) {
      uint64_t V = 0;
      if (parseCount(Env, 0, UINT32_MAX, V))
        DeadlineUs = static_cast<unsigned>(V);
      else
        telemetry::logf(telemetry::LogLevel::Warn, "serve",
                        "ignoring malformed RFP_SERVE_FLUSH_US value \"%s\"",
                        Env);
    }
    FlushDeadline = std::chrono::microseconds(DeadlineUs);
    if (Opts.MaxBatchElems == 0)
      Opts.MaxBatchElems = 1;
    if (Opts.TargetBatchElems == 0)
      Opts.TargetBatchElems = 1;
    unsigned N = ThreadPool::resolveThreads(Opts.Threads);
    Armed.assign(N, Clock::time_point::max());
    Workers.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Workers.emplace_back([this, I] { workerLoop(I); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopping = true;
    }
    WorkCV.notify_all();
    CapacityCV.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  bool allIdle() const { return InFlight == 0 && PendingElems == 0; }

  /// True when a new queue deadline \p Due would pass before any parked
  /// drainer's armed wait ends, so one must be woken to re-arm.
  bool earlierThanEveryArmedWait(Clock::time_point Due) const {
    return Due < *std::min_element(Armed.begin(), Armed.end());
  }

  void workerLoop(unsigned Self) {
#ifdef __linux__
    prctl(PR_SET_TIMERSLACK, DrainerTimerSlackNs, 0, 0, 0);
#endif
    std::vector<Slice> Batch;
    std::vector<float> Staging;
    std::vector<double> H;
    bool Woke = false;
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      // One pass over the heads: the readiest queue and the earliest
      // deadline of the others.
      Clock::time_point Now = Clock::now();
      const bool DrainAll = Stopping || Flushing;
      int Best = -1;
      Clock::time_point Wake = Clock::time_point::max();
      for (int V = 0; V < NumVariants; ++V) {
        const QueueHead &Q = Heads[V];
        if (Q.Elems == 0)
          continue;
        if (DrainAll || Q.Elems >= Opts.TargetBatchElems || Now >= Q.Due) {
          if (Best < 0 || Q.Elems > Heads[Best].Elems)
            Best = V;
        } else {
          Wake = std::min(Wake, Q.Due);
        }
      }
      const bool Exit = Best < 0 && Stopping && allIdle();
      if (Woke) {
        CWakeups.inc();
        StatWakeups.fetch_add(1, std::memory_order_relaxed);
        if (Best < 0 && !Exit) {
          CIdleWakeups.inc();
          StatIdleWakeups.fetch_add(1, std::memory_order_relaxed);
        }
        Woke = false;
      }
      if (Exit)
        return;
      if (Best < 0) {
        Armed[Self] = Wake;
        if (Wake == Clock::time_point::max())
          WorkCV.wait(Lock);
        else
          WorkCV.wait_until(Lock, Wake);
        Armed[Self] = Clock::time_point::max();
        Woke = true;
        continue;
      }

      // Cut up to MaxBatchElems from the chosen queue.
      QueueHead &Q = Heads[Best];
      std::deque<Slice> &Qs = Slices[Best];
      Batch.clear();
      size_t Cut = 0;
      while (!Qs.empty() && Cut < Opts.MaxBatchElems) {
        Slice &Front = Qs.front();
        size_t Take = std::min(Front.Len, Opts.MaxBatchElems - Cut);
        Batch.push_back({Front.Req, Front.Off, Take});
        if (Take == Front.Len) {
          Qs.pop_front();
        } else {
          Front.Off += Take;
          Front.Len -= Take;
        }
        Cut += Take;
      }
      Q.Elems -= Cut;
      PendingElems -= Cut;
      // A remainder restarts its deadline clock. Wake a sibling if it is
      // still ready, or if its new deadline is earlier than every armed
      // wait (flush() and shutdown have already woken everyone).
      bool WakeSibling = false;
      if (Q.Elems > 0) {
        Q.Due = Now + FlushDeadline;
        WakeSibling = Q.Elems >= Opts.TargetBatchElems ||
                      earlierThanEveryArmedWait(Q.Due);
      }
      ++InFlight;
      Lock.unlock();
      if (WakeSibling)
        WorkCV.notify_one();
      CapacityCV.notify_all();

      runBatch(static_cast<ElemFunc>(Best / 4),
               static_cast<EvalScheme>(Best % 4), Batch, Staging, H);

      Lock.lock();
      --InFlight;
      if (allIdle()) {
        IdleCV.notify_all();
        if (Stopping)
          WorkCV.notify_all(); // release siblings parked on empty queues
      }
    }
  }

  /// Gather -> one evalBatch -> scatter + round + fulfill. No lock held.
  void runBatch(ElemFunc F, EvalScheme S, const std::vector<Slice> &Batch,
                std::vector<float> &Staging, std::vector<double> &H) {
    size_t N = 0;
    for (const Slice &Sl : Batch)
      N += Sl.Len;
    Staging.resize(N);
    H.resize(N);
    size_t At = 0;
    for (const Slice &Sl : Batch) {
      std::memcpy(Staging.data() + At, Sl.Req->In + Sl.Off,
                  Sl.Len * sizeof(float));
      At += Sl.Len;
    }

    libm::evalBatch(F, S, Staging.data(), H.data(), N);

    CBatches.inc();
    HWidth.record(static_cast<double>(N));
    StatBatches.fetch_add(1, std::memory_order_relaxed);
    if (Batch.size() > 1) {
      CCoalesced.inc();
      StatCoalesced.fetch_add(1, std::memory_order_relaxed);
    }

    At = 0;
    Clock::time_point Done = Clock::now();
    for (const Slice &Sl : Batch) {
      PendingReq *R = Sl.Req;
      std::memcpy(R->Res.H.data() + Sl.Off, H.data() + At,
                  Sl.Len * sizeof(double));
      libm::roundBatch(H.data() + At, R->Res.Enc.data() + Sl.Off, Sl.Len,
                       R->Format, R->Mode);
      At += Sl.Len;
      if (R->Remaining.fetch_sub(Sl.Len, std::memory_order_acq_rel) ==
          Sl.Len) {
        HLatency.record(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Done - R->SubmitTime)
                .count());
        R->Promise.set_value(std::move(R->Res));
        delete R;
      }
    }
  }

  std::future<Result> submit(Request R) {
    auto Req = std::make_unique<PendingReq>();
    std::future<Result> Fut = Req->Promise.get_future();

    if (!available(R.Key)) {
      Req->Promise.set_exception(std::make_exception_ptr(std::invalid_argument(
          std::string("variant not generated: ") + elemFuncName(R.Key.Func) +
          "/" + evalSchemeName(R.Key.Scheme))));
      return Fut;
    }

    CRequests.inc();
    CElems.add(R.N);
    CFunc[static_cast<int>(R.Key.Func)].inc();
    if (!R.Tenant.empty())
      telemetry::counter(("serve.tenant." + R.Tenant).c_str()).inc();
    StatRequests.fetch_add(1, std::memory_order_relaxed);
    StatElems.fetch_add(R.N, std::memory_order_relaxed);

    if (R.N == 0) {
      Req->Promise.set_value(Result{});
      return Fut;
    }

    Req->In = R.In;
    Req->Format = R.Key.Format;
    Req->Mode = R.Key.Mode;
    Req->SubmitTime = Clock::now();
    Req->Res.H.resize(R.N);
    Req->Res.Enc.resize(R.N);
    Req->Remaining.store(R.N, std::memory_order_relaxed);

    int V = variantIndex(R.Key.Func, R.Key.Scheme);
    bool Wake = false;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      QueueHead &Q = Heads[V];
      // Backpressure: wait for room; an oversized request is admitted
      // alone into an empty queue.
      CapacityCV.wait(Lock, [&] {
        return Stopping || Q.Elems == 0 ||
               Q.Elems + R.N <= Opts.QueueCapacityElems;
      });
      if (Stopping) {
        Req->Promise.set_exception(std::make_exception_ptr(
            std::runtime_error("serve::Server is shutting down")));
        return Fut;
      }
      const size_t Before = Q.Elems;
      if (Before == 0)
        Q.Due = Req->SubmitTime + FlushDeadline;
      Slices[V].push_back({Req.get(), 0, R.N});
      Req.release(); // the queue owns the record now
      Q.Elems += R.N;
      PendingElems += R.N;
      HDepth.record(static_cast<double>(Q.Elems));
      Wake = (Before < Opts.TargetBatchElems &&
              Q.Elems >= Opts.TargetBatchElems) ||
             (Before == 0 && earlierThanEveryArmedWait(Q.Due));
    }
    if (Wake)
      WorkCV.notify_one();
    return Fut;
  }

  void flush() {
    std::unique_lock<std::mutex> Lock(Mu);
    ++Flushing;
    WorkCV.notify_all();
    IdleCV.wait(Lock, [&] { return allIdle(); });
    --Flushing;
  }
};

Server::Server(ServerOptions Opts) : I(std::make_unique<Impl>(Opts)) {}

Server::~Server() = default;

std::future<Result> Server::submit(Request R) { return I->submit(std::move(R)); }

void Server::flush() { I->flush(); }

ServerStats Server::stats() const {
  ServerStats S;
  S.Requests = I->StatRequests.load(std::memory_order_relaxed);
  S.Elems = I->StatElems.load(std::memory_order_relaxed);
  S.Batches = I->StatBatches.load(std::memory_order_relaxed);
  S.CoalescedBatches = I->StatCoalesced.load(std::memory_order_relaxed);
  S.Wakeups = I->StatWakeups.load(std::memory_order_relaxed);
  S.IdleWakeups = I->StatIdleWakeups.load(std::memory_order_relaxed);
  return S;
}
