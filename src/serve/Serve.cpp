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
// point of the layer is that kernel work dwarfs queue bookkeeping.
//
// Draining. A worker picks the readiest queue (largest backlog first so
// deep queues drain toward full ISA-width batches), cuts up to
// MaxBatchElems elements, and releases the lock before touching any
// element data. It then gathers the slices' inputs into a staging buffer,
// runs ONE evalBatch over the whole thing, and scatters H back, rounding
// each slice into its request's format and mode with one roundBatch. Each
// request carries an atomic countdown of unscattered elements; the worker
// that scatters a request's last slice fulfills its promise. Scatters of
// different slices of one request write disjoint ranges, so no lock is
// held during evaluation or scatter.
//
// Readiness. A queue is ready when it holds TargetBatchElems elements,
// when its oldest slice has aged past the flush deadline, during flush(),
// and at shutdown. Workers sleep on a condition variable with a timeout
// no longer than the earliest pending deadline, so a lone sub-width
// request waits at most ~FlushDeadlineUs before it runs.
//
// Shutdown. The destructor marks stopping, wakes everyone, and joins;
// stopping makes every non-empty queue ready, and workers only exit once
// all queues are empty, so every accepted future is fulfilled. submit()
// after shutdown begins fails the future rather than blocking.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "libm/Batch.h"
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

using namespace rfp;
using namespace rfp::serve;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int NumVariants = 6 * 4;

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
  /// fulfills the promise.
  std::atomic<size_t> Remaining{0};
};

struct Slice {
  std::shared_ptr<PendingReq> Req;
  size_t Off = 0;
  size_t Len = 0;
};

struct VarQueue {
  std::deque<Slice> Slices;
  size_t Elems = 0;
  /// Arrival time of the front slice (valid while non-empty).
  Clock::time_point Oldest;
};

} // namespace

struct Server::Impl {
  ServerOptions Opts;
  Clock::duration FlushDeadline{};

  mutable std::mutex Mu;
  std::condition_variable WorkCV;     // workers: something may be ready
  std::condition_variable CapacityCV; // submitters: space freed
  std::condition_variable IdleCV;     // flush(): drained and quiescent
  VarQueue Queues[NumVariants];
  bool Stopping = false;
  int Flushing = 0; // flush() calls in progress
  int InFlight = 0; // batches cut but not yet scattered
  std::vector<std::thread> Workers;

  // Exact per-server totals (the telemetry registry is process-global).
  std::atomic<uint64_t> StatRequests{0}, StatElems{0}, StatBatches{0},
      StatCoalesced{0};

  // Registered once; updates are lock-free thread-local shards.
  telemetry::Counter CRequests = telemetry::counter("serve.requests");
  telemetry::Counter CElems = telemetry::counter("serve.elems");
  telemetry::Counter CBatches = telemetry::counter("serve.batches");
  telemetry::Counter CCoalesced = telemetry::counter("serve.batch_coalesced");
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

  explicit Impl(ServerOptions O) : Opts(O) {
    unsigned DeadlineUs = Opts.FlushDeadlineUs;
    if (const char *Env = std::getenv("RFP_SERVE_FLUSH_US")) {
      char *End = nullptr;
      long V = std::strtol(Env, &End, 10);
      if (End != Env && *End == '\0' && V >= 0)
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
    Workers.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Workers.emplace_back([this] { workerLoop(); });
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

  /// True when queue \p V should be drained now.
  bool ready(const VarQueue &Q, Clock::time_point Now) const {
    if (Q.Elems == 0)
      return false;
    return Stopping || Flushing || Q.Elems >= Opts.TargetBatchElems ||
           Now - Q.Oldest >= FlushDeadline;
  }

  bool allIdle() const {
    if (InFlight > 0)
      return false;
    for (const VarQueue &Q : Queues)
      if (Q.Elems > 0)
        return false;
    return true;
  }

  void workerLoop() {
    std::vector<Slice> Batch;
    std::vector<float> Staging;
    std::vector<double> H;
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      Clock::time_point Now = Clock::now();
      int Best = -1;
      for (int V = 0; V < NumVariants; ++V)
        if (ready(Queues[V], Now) &&
            (Best < 0 || Queues[V].Elems > Queues[Best].Elems))
          Best = V;
      if (Best < 0) {
        if (Stopping && allIdle())
          return;
        // Sleep until the earliest pending deadline (or a notify).
        Clock::time_point Wake = Clock::time_point::max();
        for (const VarQueue &Q : Queues)
          if (Q.Elems > 0)
            Wake = std::min(Wake, Q.Oldest + FlushDeadline);
        if (Wake == Clock::time_point::max())
          WorkCV.wait(Lock);
        else
          WorkCV.wait_until(Lock, Wake);
        continue;
      }

      // Cut up to MaxBatchElems from the chosen queue.
      VarQueue &Q = Queues[Best];
      Batch.clear();
      size_t Cut = 0;
      while (!Q.Slices.empty() && Cut < Opts.MaxBatchElems) {
        Slice &Front = Q.Slices.front();
        size_t Take = std::min(Front.Len, Opts.MaxBatchElems - Cut);
        if (Take == Front.Len) {
          Batch.push_back(std::move(Front));
          Q.Slices.pop_front();
        } else {
          Batch.push_back({Front.Req, Front.Off, Take});
          Front.Off += Take;
          Front.Len -= Take;
        }
        Cut += Take;
      }
      Q.Elems -= Cut;
      if (!Q.Slices.empty())
        Q.Oldest = Now; // remainder restarts its deadline clock
      ++InFlight;
      Lock.unlock();
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
  void runBatch(ElemFunc F, EvalScheme S, std::vector<Slice> &Batch,
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
    for (Slice &Sl : Batch) {
      PendingReq &R = *Sl.Req;
      std::memcpy(R.Res.H.data() + Sl.Off, H.data() + At,
                  Sl.Len * sizeof(double));
      libm::roundBatch(H.data() + At, R.Res.Enc.data() + Sl.Off, Sl.Len,
                       R.Format, R.Mode);
      At += Sl.Len;
      if (R.Remaining.fetch_sub(Sl.Len, std::memory_order_acq_rel) ==
          Sl.Len) {
        HLatency.record(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Done - R.SubmitTime)
                .count());
        R.Promise.set_value(std::move(R.Res));
      }
      Sl.Req.reset();
    }
  }

  std::future<Result> submit(Request R) {
    auto Req = std::make_shared<PendingReq>();
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
    {
      std::unique_lock<std::mutex> Lock(Mu);
      VarQueue &Q = Queues[V];
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
      if (Q.Elems == 0)
        Q.Oldest = Req->SubmitTime;
      Q.Slices.push_back({std::move(Req), 0, R.N});
      Q.Elems += R.N;
      HDepth.record(static_cast<double>(Q.Elems));
    }
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
  return S;
}
