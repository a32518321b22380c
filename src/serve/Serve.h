//===- serve/Serve.h - Batched libm serving front-end ----------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An asynchronous evaluation front-end over the batch API: callers submit
/// heterogeneous requests (function x scheme x output format x rounding
/// mode) from any thread and receive a future; the server coalesces
/// pending requests into per-(function, scheme) queues, drains each queue
/// in ISA-width-friendly batches through one evalBatch call, and scatters
/// the results back to the per-request futures. Small requests from many
/// submitters amortize into wide kernel invocations -- the batch layer's
/// throughput without requiring any single caller to present a wide array.
///
/// Correctness contract: the H results a future delivers are
/// **bit-identical** to calling the scalar `<func>_<scheme>(float)` core
/// per element (inherited from the batch layer's parity contract, pinned
/// by ServeTest's differential suite), and each encoding is exactly
/// `roundResult(H, Format, Mode)`. Coalescing therefore never changes a
/// single output bit; it only changes *when* work runs.
///
/// Batching policy: a queue is drained when it holds at least
/// TargetBatchElems elements, when its oldest request has waited
/// FlushDeadlineUs microseconds (RFP_SERVE_FLUSH_US overrides the
/// default), when flush() is called, or at shutdown. Backpressure is a
/// bounded per-queue element count: submit() blocks while the target
/// queue is full (a request larger than the capacity is admitted alone
/// into an empty queue rather than rejected).
///
/// Drainers are event-driven: submit() wakes one only when its request
/// makes a queue ready or sets a flush deadline that no parked drainer's
/// timed wait already covers, so most submits take the lock, push and
/// return. The drainer threads run with a 1 us timer slack (Linux), so a
/// deadline wait ends on time; a caller's threads keep theirs.
///
/// Observability (through support/Telemetry.h): serve.requests{,.<func>},
/// serve.tenant.<tenant>, serve.elems, serve.batches, serve.batch_width
/// and serve.queue_depth histograms, serve.batch_coalesced, the drainer
/// wake-up counters serve.wakeups and serve.wakeups_idle, and the
/// serve.request_latency_us histogram (p50/p99 via histogramValue).
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SERVE_SERVE_H
#define RFP_SERVE_SERVE_H

#include "libm/rfp.h"

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

namespace rfp {
namespace serve {

/// One evaluation request: the variant, named by the same rfp::VariantKey
/// that rfp::eval / rfp::evalBatch and the verification engine use, plus
/// the input span -- which must stay alive and unmodified until the
/// returned future is ready.
struct Request {
  VariantKey Key;
  const float *In = nullptr;
  size_t N = 0;
  /// Optional attribution key for per-tenant metrics
  /// (serve.tenant.<Tenant> counters); empty disables attribution.
  std::string Tenant;
};

/// What a request's future delivers.
struct Result {
  /// H[i] is bit-identical to `<func>_<scheme>(In[i])`.
  std::vector<double> H;
  /// Enc[i] == roundResult(H[i], Format, Mode): an encoding of Format.
  std::vector<uint64_t> Enc;
};

struct ServerOptions {
  /// Drainer threads; 0 defers to RFP_THREADS / hardware_concurrency()
  /// (ThreadPool::resolveThreads).
  unsigned Threads = 0;
  /// Bounded-queue capacity in elements, per (function, scheme) queue.
  size_t QueueCapacityElems = 1 << 16;
  /// Largest element count handed to one evalBatch call.
  size_t MaxBatchElems = 4096;
  /// Queue depth that triggers an immediate drain.
  size_t TargetBatchElems = 256;
  /// Age of the oldest queued request that triggers a drain even below
  /// TargetBatchElems. The RFP_SERVE_FLUSH_US environment variable
  /// overrides this default (consulted once, at server construction); a
  /// value that is not a whole decimal below 2^32 is ignored with a
  /// warning.
  unsigned FlushDeadlineUs = 200;
};

/// Exact per-server totals (the telemetry registry aggregates across all
/// servers in the process; these do not).
struct ServerStats {
  uint64_t Requests = 0;
  uint64_t Elems = 0;
  uint64_t Batches = 0;
  /// Batches whose elements came from more than one request.
  uint64_t CoalescedBatches = 0;
  /// Times a parked drainer woke (notified, timed out or spurious).
  uint64_t Wakeups = 0;
  /// Wake-ups after which the drainer found no ready queue.
  uint64_t IdleWakeups = 0;
  double meanBatchWidth() const {
    return Batches ? static_cast<double>(Elems) / static_cast<double>(Batches)
                   : 0.0;
  }
};

class Server {
public:
  explicit Server(ServerOptions Opts = {});
  /// Drains every queued request, then joins the drainer threads. Futures
  /// obtained from submit() are always fulfilled.
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Enqueues \p R and returns the future delivering its Result. Blocks
  /// while the target queue is at capacity. A request for an unavailable
  /// variant (variantInfo(F, S).Available == false) fails the future with
  /// std::invalid_argument; a request submitted during shutdown fails it
  /// with std::runtime_error.
  std::future<Result> submit(Request R);

  /// Synchronously drains everything queued at the time of the call.
  void flush();

  ServerStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace serve
} // namespace rfp

#endif // RFP_SERVE_SERVE_H
