//===- verify/Verify.h - Exhaustive multi-format verification --*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness moat: a sharded, thread-pooled sweep engine that checks
/// the shipped results bit-for-bit against the certified oracle over the
/// full claim of the paper -- every input of every FP(k, 8) format from 10
/// to 32 bits, under all five IEEE rounding modes, for all six functions,
/// through both evaluation paths (the scalar cores and the SIMD batch
/// kernels per compiled ISA), and optionally under a *changed dynamic FP
/// rounding mode* (RLibm-MultiRound's scenario, the `fesetround` lanes).
///
/// The work decomposes into **units**: one (function, scheme, format)
/// triple. A unit enumerates its format's encodings (exhaustively for
/// narrow formats, strided for wide ones), decodes each to the float
/// input, obtains RO_34(f(x)) once per input from the certified fast-path
/// oracle (exact-oracle fallback, both memoized), and then checks, for
/// every (path, lane, mode) in the sweep matrix, that
///
///     roundDouble(H(x), fmt, mode) == roundDouble(RO_34, fmt, mode)
///
/// The base path does the five rounded comparisons per input; every other
/// (path, lane) first bit-compares its H against the base H -- identical
/// bits prove the five comparisons transitively, so verifying four extra
/// ISA/lane combinations costs little more than their evaluations. Only
/// when an H diverges (a kernel parity bug, a mode leak) does the engine
/// fall back to the full per-mode comparison and record what actually
/// misrounds.
///
/// Units run blocks through ThreadPool::parallelReduce with a fixed
/// partition, so counts, mismatch records and their order are bit-
/// identical for every thread count. Sharded runs persist per-unit
/// results as support/ShardFile.h shard sets (checksummed, atomically
/// renamed, pinned to the sweep's canonical config line) so `verify
/// --shard K/M --resume` skips shards that already completed -- a killed
/// run loses at most its in-flight shard.
///
/// Telemetry: verify.inputs, verify.comparisons, verify.mismatches,
/// verify.units, verify.units_resumed, verify.oracle.fast,
/// verify.oracle.exact counters and the verify.unit_ms histogram.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_VERIFY_VERIFY_H
#define RFP_VERIFY_VERIFY_H

#include "libm/rfp.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rfp {
namespace verify {

//===----------------------------------------------------------------------===//
// The sweep matrix.
//===----------------------------------------------------------------------===//

/// Which implementation produced the H under test.
enum class EvalPath : uint8_t {
  ScalarCore, ///< per-call cores via rfp::evalH
  Batch,      ///< batch kernels via rfp::evalBatchH with a pinned ISA
};

/// One evaluation path: the scalar cores, or the batch entry with a
/// specific kernel ISA (which itself falls back to the scalar loop when
/// the ISA is not compiled in / not supported, per the Batch.h contract).
struct PathSpec {
  EvalPath Path = EvalPath::ScalarCore;
  libm::BatchISA ISA = libm::BatchISA::Scalar;

  bool operator==(const PathSpec &RHS) const {
    return Path == RHS.Path && (Path == EvalPath::ScalarCore ||
                                ISA == RHS.ISA);
  }
};

/// "scalar-core", "batch-avx512", ...
std::string pathSpecName(const PathSpec &P);

/// Dynamic FP environments the sweep pins around the eval calls -- the
/// MultiRound lanes. Default leaves the ambient mode alone; the others
/// fesetround before evaluating and restore afterwards. The shipped
/// results must not move (rfp.h's MultiRound contract).
enum class FeLane : uint8_t { Default, Upward, Downward, TowardZero };

/// "default", "fe-upward", "fe-downward", "fe-towardzero".
const char *feLaneName(FeLane L);

/// The <cfenv> FE_* constant for a lane (-1 for Default).
int feLaneMode(FeLane L);

//===----------------------------------------------------------------------===//
// Configuration and planning.
//===----------------------------------------------------------------------===//

struct SweepConfig {
  /// Functions to sweep; empty = all six.
  std::vector<ElemFunc> Funcs;
  /// Schemes to sweep; empty = all four. Unavailable (func, scheme)
  /// combinations are skipped either way.
  std::vector<EvalScheme> Schemes;
  /// Format family: FP(k, 8) for MinBits <= k <= MaxBits.
  unsigned MinBits = 10;
  unsigned MaxBits = 32;
  /// Formats with totalBits <= ExhaustiveBits enumerate every encoding;
  /// wider formats stride their encoding space by Stride.
  unsigned ExhaustiveBits = 16;
  /// Encoding stride for the non-exhaustive formats. Odd values hit
  /// varied mantissa/exponent patterns; 1 makes everything exhaustive.
  uint64_t Stride = 65537;
  /// Verify the batch path on every compiled ISA instead of only the
  /// process's active one.
  bool AllISAs = false;
  /// Add the MultiRound fesetround lanes to the matrix.
  bool FeLanes = false;
  /// Worker threads (ThreadPool::resolveThreads semantics; 0 = default).
  unsigned Threads = 0;
  /// Inputs per work block (also the deterministic chunk size).
  size_t BlockElems = 4096;
  /// Cap on mismatch records kept per unit (counts are always exact).
  unsigned MaxRecordsPerUnit = 64;
  /// Test seam: post-eval H mutation, applied identically to every path
  /// and lane (mismatch-injection tests). Null in production.
  std::function<double(ElemFunc F, EvalScheme S, unsigned FormatBits,
                       uint32_t XBits, double H)>
      HMutator;
};

/// One (function, scheme, format) work unit of the sweep.
struct Unit {
  ElemFunc Func = ElemFunc::Exp;
  EvalScheme Scheme = EvalScheme::EstrinFMA;
  unsigned FormatBits = 32;
  /// Encoding stride for this unit (1 = exhaustive).
  uint64_t Stride = 1;
  /// Number of encodings the unit enumerates (ceil(2^bits / Stride)).
  uint64_t NumEncodings = 0;
};

/// The deterministic unit list for a configuration, in (func, scheme,
/// bits) order. Unavailable variants are omitted.
std::vector<Unit> planUnits(const SweepConfig &C);

/// The evaluation paths for a configuration: the scalar cores plus the
/// batch path on the active ISA (AllISAs: on every compiled ISA).
std::vector<PathSpec> planPaths(const SweepConfig &C);

/// The FE lanes for a configuration: {Default}, or all four with FeLanes.
std::vector<FeLane> planLanes(const SweepConfig &C);

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

/// One recorded wrong result: what was asked, what the implementation
/// rounded to, and what the oracle requires. Serialized in shard files as
/// 32 packed bytes.
struct Mismatch {
  uint32_t XBits = 0;   ///< float32 bit pattern of the input
  uint64_t GotEnc = 0;  ///< implementation result, encoding of the format
  uint64_t WantEnc = 0; ///< oracle result, encoding of the format
  uint8_t Func = 0;     ///< ElemFunc index
  uint8_t Scheme = 0;   ///< EvalScheme index
  uint8_t FormatBits = 0;
  uint8_t Mode = 0;     ///< RoundingMode index (standard modes)
  uint8_t Path = 0;     ///< EvalPath index
  uint8_t ISA = 0;      ///< BatchISA index (Batch path only)
  uint8_t Lane = 0;     ///< FeLane index

  bool operator==(const Mismatch &RHS) const {
    return XBits == RHS.XBits && GotEnc == RHS.GotEnc &&
           WantEnc == RHS.WantEnc && Func == RHS.Func &&
           Scheme == RHS.Scheme && FormatBits == RHS.FormatBits &&
           Mode == RHS.Mode && Path == RHS.Path && ISA == RHS.ISA &&
           Lane == RHS.Lane;
  }
};

/// Aggregated outcome of one unit.
struct UnitResult {
  uint64_t Inputs = 0;      ///< encodings evaluated (independent of paths)
  uint64_t Comparisons = 0; ///< logical (mode x path x lane) comparisons
  uint64_t Mismatches = 0;  ///< total wrong results (exact, never capped)
  uint64_t OracleFast = 0;  ///< inputs decided by the certified fast path
  uint64_t OracleExact = 0; ///< inputs that needed the exact oracle
  double Millis = 0.0;      ///< wall-clock of the unit sweep
  std::vector<Mismatch> Records; ///< first MaxRecordsPerUnit mismatches
};

/// Runs one unit in-process (parallel over blocks, deterministic for any
/// thread count).
UnitResult runUnit(const SweepConfig &C, const Unit &U);

struct UnitOutcome {
  Unit U;
  UnitResult R;
  bool Resumed = false; ///< loaded from a valid shard instead of recomputed
};

/// Whole-sweep report: per-unit outcomes plus totals.
struct SweepReport {
  std::vector<UnitOutcome> Units;
  std::vector<PathSpec> Paths;
  std::vector<FeLane> Lanes;
  uint64_t Inputs = 0;
  uint64_t Comparisons = 0;
  uint64_t Mismatches = 0;
  uint64_t OracleFast = 0;
  uint64_t OracleExact = 0;
  unsigned UnitsResumed = 0;
  double Millis = 0.0; ///< sum of unit wall-clocks

  /// Recomputes the totals from Units.
  void accumulate();
};

/// Runs every unit of the plan in-process (no persistence).
SweepReport runSweep(const SweepConfig &C);

//===----------------------------------------------------------------------===//
// Sharded / resumable runs.
//===----------------------------------------------------------------------===//

struct ShardOptions {
  std::string Dir;        ///< shard directory (required)
  unsigned NumShards = 1; ///< total shards M
  bool Resume = false;    ///< load shards that already completed
};

/// Computes (or, with Resume, loads) shard \p K of \p Opts.NumShards: the
/// K-th contiguous slice of the unit list (ShardSet::range's ceil split).
/// A shard that is missing or fails to load is recomputed. On success
/// \p Out holds exactly that shard's outcomes and the shard file is on
/// disk, checksummed and atomically renamed.
bool runShard(const SweepConfig &C, const ShardOptions &Opts, unsigned K,
              std::vector<UnitOutcome> &Out, std::string *Err = nullptr);

/// Runs all shards in order (each persisted as it completes, each loaded
/// instead when Resume finds it valid) and assembles the full report --
/// counts, records and their order identical to runSweep over the same
/// configuration (wall-clock fields are whatever the computing run saw).
bool runShardedSweep(const SweepConfig &C, const ShardOptions &Opts,
                     SweepReport &Report, std::string *Err = nullptr);

} // namespace verify
} // namespace rfp

#endif // RFP_VERIFY_VERIFY_H
