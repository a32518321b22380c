//===- core/PolyGen.h - The RLibm fast-poly generator ----------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution: polynomial generation with fast polynomial
/// evaluation integrated into the generate-check-constrain loop
/// (Algorithm 2, Figure 1):
///
///   1. For every input x: oracle round-to-odd FP34 result, its rounding
///      interval in H = double, range reduction, and the reduced interval
///      through the inverse output compensation.
///   2. Merge constraints that share a reduced input (intersection).
///   3. Solve the LP (exact rational arithmetic, margin-maximizing) on a
///      progressively grown constraint sample (RLibm-Prog, PLDI'22).
///   4. Round the coefficients to double and "adapt" them for the target
///      evaluation scheme (Knuth / Estrin / Estrin+FMA).
///   5. Re-evaluate the adapted polynomial *with the shipped evaluation
///      code* on every constraint; shrink the violated intervals by one
///      double ulp and re-solve (bounded number of iterations).
///   6. Escalate degree, then piece count, when a shape cannot satisfy the
///      constraints; extract stubborn inputs as special cases.
///
/// Scale note (see DESIGN.md): the paper enumerates all 2^32 inputs; we
/// sample deterministically (configurable stride) plus dense windows at
/// the domain boundaries, and validate the shipped tables over larger,
/// differently-strided samples in the test suite.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_CORE_POLYGEN_H
#define RFP_CORE_POLYGEN_H

#include "core/RoundingInterval.h"
#include "lp/LPSolver.h"
#include "poly/EvalScheme.h"
#include "support/ElemFunc.h"

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace rfp {

/// Coefficients whose magnitude falls below this threshold are flushed to
/// exact zero after rounding the LP solution to double (see
/// PolyGen.cpp's flush step and the FlushedCoefficient tests). 2^-512 is
/// deliberately far above the subnormal range (~1e-308): it is roughly
/// the square root of the smallest normal, so a flushed term could
/// contribute at most ~2^-512 * |t|^e over any reduced domain -- hundreds
/// of orders of magnitude below every rounding-interval width -- while a
/// term that small still drags denormal-assist latency into the shipped
/// evaluation once it mixes with other tiny intermediates.
constexpr double CoeffFlushThreshold = 0x1p-512;

/// Tuning knobs for the generator.
struct GenConfig {
  /// Stride over float bit patterns when sampling generation inputs.
  uint32_t SampleStride = 1009;
  /// Half-width (in bit patterns) of the dense windows around domain
  /// boundary points.
  uint32_t BoundaryWindow = 1024;
  /// LP constraint-sample cap (progressively grown by violations).
  size_t MaxLPConstraints = 400;
  /// Maximum generate-check-constrain iterations per shape (paper's N).
  unsigned MaxIterations = 48;
  /// Maximum special-case inputs tolerated per implementation.
  unsigned MaxSpecialCases = 24;
  /// Piece-count escalation ladder.
  std::vector<int> PieceLadder = {1, 2, 4, 8};
  /// Degree ladder tried within each piece (Knuth clamps the start to 4).
  std::vector<unsigned> DegreeLadder = {3, 4, 5, 6};
  /// Worker threads for the oracle-bound sweeps (constraint construction,
  /// the check phase, violation counting). 0 defers to the RFP_THREADS
  /// environment variable, then hardware_concurrency(). Generated output
  /// is bit-identical for every thread count (see DESIGN.md, "Threading
  /// model and determinism").
  unsigned NumThreads = 0;
  /// When non-empty, stream Chrome trace_event JSON for this generator's
  /// spans (per-iteration, constraint-build, LP-solve, check, shrink) to
  /// this path -- the programmatic equivalent of RFP_TRACE=<path>. The
  /// trace stream is process-wide; the first enabled path wins.
  std::string TracePath;
  /// Candidates per streamed prepare block (oracle sweep -> interval
  /// inference -> in-order merge, block by block). 0 defers to the default
  /// (2^18). Any value produces bit-identical prepare() results -- blocks
  /// only bound peak memory and progress granularity -- so tests exercise
  /// multi-block merges by shrinking it.
  uint64_t PrepareBlockCandidates = 0;
};

/// One generated implementation: everything needed to ship f(x) under one
/// evaluation scheme, plus the metrics the paper reports in Table 1.
struct GeneratedImpl {
  ElemFunc Func = ElemFunc::Exp;
  EvalScheme Scheme = EvalScheme::Horner;
  bool Success = false;

  int NumPieces = 0;
  std::vector<Polynomial> Pieces;
  std::vector<KnuthAdapted> Adapted; ///< Valid entries only for Knuth.
  std::vector<unsigned> PieceDegrees;

  struct Special {
    uint32_t Bits; ///< Input float bit pattern.
    double H;      ///< The H value to return for it.
  };
  std::vector<Special> Specials;

  unsigned LPSolves = 0;       ///< LP answers the loop consumed, solved or
                               ///< reused.
  unsigned LoopIterations = 0; ///< Total generate-check-constrain rounds.
  size_t NumInputs = 0;        ///< Generation inputs considered.
  size_t NumConstraints = 0;   ///< Merged reduced constraints.

  /// Per-phase generation statistics. The counters (pivots, rows) are
  /// deterministic and thread-count-invariant; only the wall-clock time
  /// varies between runs. The same counters are mirrored into the
  /// process-wide telemetry registry (`polygen.lp.*`, `simplex.*`).
  struct GenStats {
    double LPTimeMs = 0.0;          ///< Wall clock spent inside LP solves.
    uint64_t LPPivots = 0;          ///< Simplex pivots across all solves.
    uint64_t LPRows = 0;            ///< LP rows solved, summed over solves.
    uint64_t LPExactPricings = 0;   ///< Exact-pricing fallbacks, all solves.
    uint64_t LPReused = 0;          ///< Answers the generator's LP memo
                                    ///< supplied: no solve, no pivots.
    uint64_t LPWarmSolves = 0;      ///< Solves served from a warm basis.
    uint64_t LPColdSolves = 0;      ///< Pure cold solves (neither warm nor
                                    ///< presolved).
    uint64_t LPWarmFallbacks = 0;   ///< Warm attempts that re-ran cold or
                                    ///< presolved.
    uint64_t LPWarmPivots = 0;      ///< Pivots across warm solves.
    uint64_t LPColdPivots = 0;      ///< Pivots across pure cold solves.
    /// Presolve accounting (see SimplexSession::Stats): every attempt is
    /// certified, repaired, or a fallback; solves served through the
    /// presolve path = certified + repaired.
    uint64_t LPPresolveAttempts = 0;
    uint64_t LPPresolveSolves = 0;
    uint64_t LPPresolveCertified = 0;
    uint64_t LPPresolveRepaired = 0;
    uint64_t LPPresolveFallbacks = 0;
    uint64_t LPPresolvePivots = 0; ///< Pivots across presolved solves.
  };
  GenStats Stats;

  unsigned maxDegree() const {
    unsigned D = 0;
    for (unsigned PD : PieceDegrees)
      D = std::max(D, PD);
    return D;
  }

  /// Evaluates this implementation end to end (reduce, special cases,
  /// piece dispatch, scheme evaluation, output compensation), exactly as
  /// the shipped code does.
  double evalH(float X) const;
};

/// Bit patterns of the boundary anchors around which the generator samples
/// dense windows: special-path handoffs and exactly representable results.
std::vector<uint32_t> windowAnchors(ElemFunc Func);

/// The window patterns off the stride, ascending and distinct: every
/// pattern within \p Window of an anchor or of its sign mirror
/// (anchor ^ 0x80000000), modulo 2^32, that is not a multiple of
/// \p Stride. The generator's candidate domain is their union with the
/// strided patterns 0, Stride, 2 * Stride, ... (reduceInput later filters
/// out the inputs that take a special path).
std::vector<uint32_t> windowOnlyBits(const std::vector<uint32_t> &Anchors,
                                     uint32_t Window, uint32_t Stride);

/// Drives constraint construction (shared across schemes) and per-scheme
/// generation for one elementary function.
class PolyGenerator {
public:
  explicit PolyGenerator(ElemFunc F, GenConfig Config = GenConfig());

  /// Builds the generation input set, queries the oracle, and assembles
  /// the merged reduced constraints. Expensive (oracle-bound); runs once
  /// and is shared by all schemes.
  ///
  /// Progress and diagnostics are reported through the telemetry logger
  /// (component "polygen", levels info/debug) -- see support/Telemetry.h.
  /// Observe them with RFP_LOG_LEVEL=info or telemetry::addLogSink().
  void prepare();

  /// Runs the integrated generation loop for one evaluation scheme. The
  /// LP does not depend on the scheme, only the check does, so the
  /// generator keeps every LP answer it computes and answers a system any
  /// earlier generate() call posed without solving it again (see
  /// DESIGN.md, "Incremental LP re-solving"). The result does not depend
  /// on which generate() calls came before; GenStats::LPReused counts the
  /// answers taken from the memo.
  GeneratedImpl generate(EvalScheme S);

  /// Per-phase accounting of the last prepare() run.
  /// Times are wall clock; the fast-path tallies are deltas of the
  /// process-wide `oracle.fast.*` counters over the run (FastFallbacks
  /// counts every input the certified path handed to the exact oracle:
  /// boundary straddles plus domain rejects).
  struct PrepareBreakdown {
    double OracleMs = 0.0;   ///< Oracle sweep (fast path + exact fallback).
    double IntervalMs = 0.0; ///< Rounding-interval + inverse compensation.
    double MergeMs = 0.0;    ///< Serial in-order constraint merge.
    double FinalizeMs = 0.0; ///< Sort by reduced input, exact-form pass.
    uint64_t FastAccepts = 0;
    uint64_t FastFallbacks = 0;
  };
  const PrepareBreakdown &prepareBreakdown() const { return Breakdown; }

  /// Number of candidate bit patterns (strided sweep plus boundary
  /// windows) this configuration enumerates: the domain prepare() streams
  /// in blocks of GenConfig::PrepareBlockCandidates.
  uint64_t candidateCount();

  /// The Section 6.3 experiment: evaluate \p Base's polynomials under
  /// scheme \p S *without* re-running the loop (naive post-process
  /// adaptation) and count the generation inputs that now receive results
  /// outside their rounding intervals.
  size_t countPostProcessViolations(const GeneratedImpl &Base, EvalScheme S);

  size_t numConstraints() const { return Constraints.size(); }
  size_t numInputs() const { return NumInputs; }
  ElemFunc func() const { return Func; }

  /// Snapshot of the merged reduced constraints as exact LP rows, in
  /// ascending reduced-input order. Requires prepare(). This is the raw
  /// material solvePolyLP consumes; the simplex benchmark replays it
  /// against captured real-pipeline systems.
  std::vector<IntervalConstraint> exportLPConstraints() const;

private:
  struct MergedConstraint {
    double T;
    double Alpha, Beta;           ///< Current (possibly shrunk) bounds.
    double Alpha0, Beta0;         ///< Pristine bounds (for experiments).
    std::vector<uint32_t> Inputs; ///< Contributing input bit patterns.
    bool Dead = false;            ///< Retired into special cases.
    /// Exact form of T, converted once after the merge: T never changes
    /// across iterations (only Alpha/Beta shrink), so no LP session
    /// re-runs Rational::fromDouble on it.
    Rational TX;
  };

  /// The candidate domain, stored as (implicit strided set) union (window
  /// patterns not on the stride), both sorted -- lazy enumeration instead
  /// of a materialized 2^32-scale vector. emit() hands out any contiguous
  /// index range in ascending bit-pattern order via k-th-of-two-sorted-
  /// arrays selection plus a merge walk, which is what lets prepare()
  /// stream it block by block.
  struct CandidateSet {
    uint64_t Stride = 0;
    uint64_t NumStrided = 0;       ///< Patterns 0, S, 2S, ... below 2^32.
    std::vector<uint32_t> WinOnly; ///< Window patterns off the stride.
    uint64_t size() const { return NumStrided + WinOnly.size(); }
    void emit(uint64_t Begin, uint64_t End, std::vector<uint32_t> &Out) const;
  };

  /// One oracle verdict: a poly-path input and its round-to-odd FP34
  /// encoding.
  struct Record {
    uint32_t Bits;
    uint64_t Enc;
  };

  void initCandidates();
  /// Pass A over candidates [Begin, End): filter to poly-path inputs and
  /// resolve each one's RO_34 encoding (certified fast path in batches,
  /// exact oracle for the remainder), emitting records in candidate order.
  void oracleRecords(uint64_t Begin, uint64_t End, std::vector<Record> &Out);
  /// Pass B: derive rounding + reduced intervals (parallel) and fold the
  /// records into the constraint map (serial, record order).
  void consumeRecords(const Record *Recs, size_t N);
  /// Sorts constraints by reduced input (in place) and converts their
  /// exact forms (in parallel).
  void finalizePrepare();
  /// Basis rows of an LP optimum in piece-local terms: (piece constraint
  /// index, row side) pairs, side 2 being the delta cap.
  using PieceBasis = std::vector<std::pair<size_t, int>>;

  /// \p Root is the LP memo's root for this (piece layout, piece, degree)
  /// attempt, SIZE_MAX until an attempt first solves it.
  /// \p DegreeHint is the progressive-degree channel (RLIBM-PROG): on
  /// entry, the optimal basis of this piece's previous (lower-degree)
  /// attempt, seeded into the LP presolver; on a failed return, the last
  /// feasible basis of this attempt, for the next degree to consume.
  /// Performance-only.
  bool generatePiece(EvalScheme S, std::vector<MergedConstraint *> &Piece,
                     unsigned Degree, size_t &Root, GeneratedImpl &Impl,
                     Polynomial &OutPoly, KnuthAdapted &OutKA,
                     PieceBasis &DegreeHint);

  ElemFunc Func;
  GenConfig Config;
  bool Prepared = false;
  size_t NumInputs = 0;
  std::vector<MergedConstraint> Constraints; ///< Sorted by T.
  std::vector<GeneratedImpl::Special> ForcedSpecials;
  CandidateSet Cands;
  bool CandsBuilt = false;
  PrepareBreakdown Breakdown;
  /// doubleKey(T) -> Constraints index; live only across consumeRecords
  /// calls of one prepare, released by finalizePrepare().
  std::unordered_map<uint64_t, size_t> MergeIndex;

  /// The LP memo, a trie of answers (see DESIGN.md, "Incremental LP
  /// re-solving"). A root is one (piece layout, piece, degree) attempt,
  /// whose first system is the fixed progressive sample; an edge is one
  /// iteration's ordered edit list, compared in full. The constraints are
  /// fixed once prepared, so the memo is never invalidated.
  struct LPMemoNode {
    bool Feasible = false;
    RationalPolynomial Poly; ///< Exact coefficients when Feasible.
    Rational Margin;
    PieceBasis Basis;        ///< The optimum's basis rows when Feasible.
    /// (edit list, node) for every next system an iteration posed.
    std::vector<std::pair<std::vector<uint64_t>, size_t>> Next;
  };
  std::vector<LPMemoNode> LPMemo;
  /// (pieces, piece, degree) -> root node index, SIZE_MAX until solved.
  std::map<std::tuple<int, int, unsigned>, size_t> LPMemoRoots;
};

} // namespace rfp

#endif // RFP_CORE_POLYGEN_H
