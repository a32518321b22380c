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
/// triple, the grain of results and records. The engine runs
/// **groups**. A function's exhaustive (stride-1) units form one group
/// across schemes and formats: every FP(k, 8) value is an FP(w, 8) value
/// for w >= k (encoding e is encoding e << (w - k)), so the group
/// enumerates the encodings of its widest format w and each format k
/// takes every 2^(w-k)-th of them. Strided units group by (function,
/// format, stride). A group decodes each enumerated encoding to the float
/// input, obtains RO_34(f(x)) once per input from the certified fast-path
/// oracle (exact-oracle fallback, both memoized), evaluates H once per
/// (scheme, path, lane) and input, and then proves, for every unit and
/// every (path, lane, mode) in the sweep matrix, that
///
///     roundDouble(H(x), fmt, mode) == roundDouble(RO_34, fmt, mode)
///
/// So the oracle answers each (function, input) of an exhaustive sweep
/// once, whatever the number of schemes and formats.
///
/// It proves the five modes of a format FP(k, 8) with one comparison per
/// input, a round-to-odd screen at FP(k + 2, 8):
///
///     roundDouble(H(x), FP(k + 2, 8), ToOdd)
///         == roundDouble(RO_34, FP(k + 2, 8), ToOdd)
///
/// A value rounded to odd with two extra bits rounds to FP(k, 8) in every
/// standard mode as the value itself does (RLIBM-ALL), so equal encodings
/// prove all five modes. Only an input that misses the screen is compared
/// mode by mode, and its mismatches and records are the per-mode ones, so
/// the counts and records are those of five comparisons per input. For
/// FP(32, 8) units, whose inputs are exactly the float32 values, the
/// screen format is FP34 and the screen is the RO_34 comparison itself,
/// one "mode" per input: it proves every FP(k <= 32, 8) format in every
/// standard mode for the input, and it is the criterion the generator
/// constrains H to.
///
/// The base path screens per input; every other (path, lane) first
/// bit-compares its H against the base H -- identical bits prove the
/// comparisons transitively, so verifying four extra ISA/lane
/// combinations costs little more than their evaluations. Only when an H
/// diverges (a kernel parity bug, a mode leak) does the engine screen
/// that H, compare it mode by mode where it misses, and record what
/// actually misrounds.
///
/// H comes from the shipped tables (scalar cores and batch kernels) or,
/// when SweepConfig::Candidate is set, from a caller's block evaluator --
/// polygen's patch pass checks its freshly generated tables this way.
///
/// Groups run blocks through ThreadPool::parallelReduce with a fixed
/// partition, so counts and mismatch records are bit-identical for every
/// thread count; a unit's records are its first mismatches in (input,
/// path, lane, mode) order, whatever the block size. Sharded runs split
/// the plan's groups, never a group, and persist per-unit results as
/// support/ShardFile.h shard sets (checksummed, atomically renamed,
/// pinned to the sweep's canonical config line) so `verify --shard K/M
/// --resume` skips shards that already completed -- a killed run loses
/// at most its in-flight shard.
///
/// Telemetry: verify.inputs, verify.comparisons, verify.mismatches,
/// verify.units, verify.units_resumed, verify.oracle.fast,
/// verify.oracle.exact (per unit, like UnitResult's fields),
/// verify.oracle.queries (the RO_34 results the process obtained, one per
/// input a group enumerates), verify.screen_misses (base-combination
/// (unit, input) pairs that missed the round-to-odd screen) counters and
/// the verify.unit_ms histogram.
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
  Candidate,  ///< SweepConfig::Candidate, the caller's block evaluator
};

/// One evaluation path: the scalar cores, or the batch entry with a
/// specific kernel ISA (which itself falls back to the scalar loop when
/// the ISA is not compiled in / not supported, per the Batch.h contract).
struct PathSpec {
  EvalPath Path = EvalPath::ScalarCore;
  libm::BatchISA ISA = libm::BatchISA::Scalar;

  bool operator==(const PathSpec &RHS) const {
    return Path == RHS.Path && (Path != EvalPath::Batch || ISA == RHS.ISA);
  }
};

/// "scalar-core", "batch-avx512", "candidate", ...
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
  /// Schemes to sweep; empty = all four. Without a Candidate, (func,
  /// scheme) combinations the shipped tables mark unavailable are skipped.
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
  /// Inputs per work block (also the deterministic chunk size). Results,
  /// records included, do not depend on it.
  size_t BlockElems = 4096;
  /// Cap on mismatch records kept per unit (counts are always exact).
  unsigned MaxRecordsPerUnit = 64;
  /// H source for tables that are not the shipped ones: writes H[0..N)
  /// for In[0..N). When set it is the sweep's only path ("candidate"),
  /// every listed (func, scheme) is swept whatever the shipped tables'
  /// availability, and the FE lanes still apply around the call. It is
  /// called from worker threads concurrently. Null = the shipped tables.
  std::function<void(ElemFunc F, EvalScheme S, const float *In, double *H,
                     size_t N)>
      Candidate;
};

/// One (function, scheme, format) unit of the sweep: the grain of results
/// and records. A function's stride-1 units run together as one
/// group, and so do the units that share a strided (function, format,
/// stride), on one oracle result and one H per (scheme, path, lane) per
/// input.
struct Unit {
  ElemFunc Func = ElemFunc::Exp;
  EvalScheme Scheme = EvalScheme::EstrinFMA;
  unsigned FormatBits = 32;
  /// Encoding stride for this unit (1 = exhaustive).
  uint64_t Stride = 1;
  /// Number of encodings the unit enumerates (ceil(2^bits / Stride)).
  uint64_t NumEncodings = 0;
};

/// The deterministic unit list for a configuration, in (func, bits,
/// scheme) order, so each group's units are contiguous and its widest
/// format comes last. A function or
/// scheme listed more than once counts once, at its first position.
/// Without a Candidate, unavailable variants are omitted.
std::vector<Unit> planUnits(const SweepConfig &C);

/// The evaluation paths for a configuration: the scalar cores plus the
/// batch path on the active ISA (AllISAs: on every compiled ISA), or the
/// candidate path alone when a Candidate is set.
std::vector<PathSpec> planPaths(const SweepConfig &C);

/// The FE lanes for a configuration: {Default}, or all four with FeLanes.
std::vector<FeLane> planLanes(const SweepConfig &C);

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

/// One recorded wrong result: what was asked, what the implementation
/// rounded to, and what the oracle requires. FP(32, 8) units record
/// RoundingMode::ToOdd and FP34 encodings. Serialized in shard files as
/// 32 packed bytes.
struct Mismatch {
  uint32_t XBits = 0;   ///< float32 bit pattern of the input
  uint64_t GotEnc = 0;  ///< implementation result, encoding of the format
  uint64_t WantEnc = 0; ///< oracle result, encoding of the format
  uint8_t Func = 0;     ///< ElemFunc index
  uint8_t Scheme = 0;   ///< EvalScheme index
  uint8_t FormatBits = 0;
  uint8_t Mode = 0;     ///< RoundingMode value
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
  uint64_t Comparisons = 0; ///< logical (mode x path x lane) comparisons,
                            ///< five modes proved by one screen; one mode
                            ///< (RO_34) at FP(32, 8)
  uint64_t Mismatches = 0;  ///< total wrong results (exact, never capped)
  uint64_t OracleFast = 0;  ///< of Inputs, decided by the certified fast path
  uint64_t OracleExact = 0; ///< of Inputs, decided by the exact oracle
  /// The unit's share of its group's wall-clock, in proportion to its
  /// Inputs, so the units' Millis add up to the sweep's time.
  double Millis = 0.0;
  /// The first MaxRecordsPerUnit mismatches in (input, path, lane, mode)
  /// order: inputs in encoding order, paths and lanes in planPaths /
  /// planLanes order, modes in StandardRoundingModes order. The list does
  /// not depend on BlockElems, the thread count, or the group.
  std::vector<Mismatch> Records;
};

struct UnitOutcome {
  Unit U;
  UnitResult R;
  bool Resumed = false; ///< loaded from a valid shard instead of recomputed
};

/// Sees each unit's outcome as its group completes, in plan order.
using UnitCallback = std::function<void(const UnitOutcome &)>;

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
  double Millis = 0.0; ///< sum of the units' Millis: the sweep's time

  /// Recomputes the totals from Units.
  void accumulate();
};

/// Runs every unit of the plan in-process (no persistence), group by
/// group, in parallel over each group's blocks; deterministic for any
/// thread count. \p OnUnit, when set, is called on the calling thread.
SweepReport runSweep(const SweepConfig &C, const UnitCallback &OnUnit = {});

//===----------------------------------------------------------------------===//
// Sharded / resumable runs.
//===----------------------------------------------------------------------===//

struct ShardOptions {
  std::string Dir;        ///< shard directory (required)
  unsigned NumShards = 1; ///< total shards M
  bool Resume = false;    ///< load shards that already completed
};

/// Computes (or, with Resume, loads) shard \p K of \p Opts.NumShards: the
/// units of the K-th contiguous slice of the plan's groups
/// (ShardSet::range's ceil split of the group count). A shard holds whole
/// groups, so each group queries the oracle and evaluates its schemes
/// once whatever the shard count; with more shards than groups the last
/// ones are empty. A shard that is missing or fails to load is
/// recomputed. On success \p Out holds exactly that shard's outcomes and
/// the shard file is on disk, checksummed and atomically renamed. Shard
/// sets carry config line version v5; older sets are refused.
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
