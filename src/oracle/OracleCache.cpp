//===- oracle/OracleCache.cpp - Memoizing oracle result cache -------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "oracle/OracleCache.h"

#include "oracle/Oracle.h"
#include "oracle/OracleFast.h"
#include "support/ShardFile.h"
#include "support/Telemetry.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

using namespace rfp;

namespace {

constexpr unsigned NumShards = 64;

struct Shard {
  std::mutex M;
  std::unordered_map<uint64_t, uint64_t> Map;
};

struct CacheState {
  Shard Shards[NumShards];
  /// Per-shard entry cap, 0 = unbounded. From RFP_ORACLE_CACHE_CAP (a
  /// total budget, divided evenly across shards), resolved once.
  size_t CapPerShard = 0;

  CacheState() {
    if (const char *Env = std::getenv("RFP_ORACLE_CACHE_CAP")) {
      uint64_t Cap = 0;
      if (!parseCount(Env, 0, UINT64_MAX, Cap))
        telemetry::logf(telemetry::LogLevel::Warn, "oracle",
                        "ignoring malformed RFP_ORACLE_CACHE_CAP value \"%s\"",
                        Env);
      else if (Cap > 0)
        CapPerShard = static_cast<size_t>(Cap / NumShards +
                                          (Cap % NumShards != 0));
    }
  }
};

CacheState &state() {
  static CacheState S;
  return S;
}

struct CacheCounters {
  telemetry::Counter Hits = telemetry::counter("oracle.cache.hits");
  telemetry::Counter Misses = telemetry::counter("oracle.cache.misses");
  telemetry::Counter Evictions = telemetry::counter("oracle.cache.evictions");
  /// Misses answered by the certified fast path (no Ziv run, no insert).
  telemetry::Counter FastServed =
      telemetry::counter("oracle.cache.fast_served");
};

const CacheCounters &counters() {
  static CacheCounters C;
  return C;
}

/// 64-bit mix (splitmix64 finalizer): the strided sweeps would otherwise
/// pile consecutive keys onto one shard and one hash bucket run.
uint64_t mix(uint64_t K) {
  K += 0x9e3779b97f4a7c15ull;
  K = (K ^ (K >> 30)) * 0xbf58476d1ce4e5b9ull;
  K = (K ^ (K >> 27)) * 0x94d049bb133111ebull;
  return K ^ (K >> 31);
}

} // namespace

uint64_t rfp::oracle_cache::evalToOdd34(ElemFunc Fn, uint32_t XBits,
                                        bool AllowFast) {
  CacheState &S = state();
  const CacheCounters &C = counters();
  uint64_t Key = (static_cast<uint64_t>(Fn) << 32) | XBits;
  uint64_t Hashed = mix(Key);
  Shard &Sh = S.Shards[Hashed % NumShards];

  {
    std::lock_guard<std::mutex> L(Sh.M);
    auto It = Sh.Map.find(Key);
    if (It != Sh.Map.end()) {
      C.Hits.inc();
      return It->second;
    }
  }
  // Compute outside the shard lock: an oracle miss takes microseconds and
  // would serialize every other query on this shard. Concurrent misses on
  // the same key both compute the (deterministic) value; the second insert
  // is a no-op.
  C.Misses.inc();
  // Certified fast path first: when the double-double enclosure rounds
  // cleanly the encoding is proved equal to Oracle::eval's, so serving it
  // keeps the cache transparent. Fast verdicts are not inserted -- they
  // re-certify in ~100ns, and skipping the insert keeps a full-range
  // sweep's cache footprint bounded by the genuinely hard inputs.
  if (AllowFast && oracle_fast::enabled()) {
    uint64_t FastEnc;
    if (oracle_fast::tryEvalToOdd34(Fn, XBits, FastEnc)) {
      C.FastServed.inc();
      return FastEnc;
    }
  }
  float X;
  std::memcpy(&X, &XBits, sizeof(X));
  uint64_t Enc = Oracle::eval(Fn, X, FPFormat::fp34(), RoundingMode::ToOdd);
  {
    std::lock_guard<std::mutex> L(Sh.M);
    if (S.CapPerShard && Sh.Map.size() >= S.CapPerShard &&
        !Sh.Map.count(Key)) {
      // Over budget: make room by dropping an arbitrary resident entry.
      // Correctness is unaffected -- a future re-query recomputes the
      // same deterministic value.
      Sh.Map.erase(Sh.Map.begin());
      C.Evictions.inc();
    }
    Sh.Map.emplace(Key, Enc);
  }
  return Enc;
}

void rfp::oracle_cache::clear() {
  CacheState &S = state();
  for (Shard &Sh : S.Shards) {
    std::lock_guard<std::mutex> L(Sh.M);
    Sh.Map.clear();
  }
}
