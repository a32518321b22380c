//===- core/PolyGen.cpp - The RLibm fast-poly generator -------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PolyGen.h"

#include "lp/LPSolver.h"
#include "oracle/Oracle.h"
#include "oracle/OracleCache.h"
#include "oracle/OracleFast.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

using namespace rfp;
using telemetry::LogLevel;

namespace {
/// Registry handles for the generator's hot counters. Registered once;
/// updates are per-thread shard writes (see support/Telemetry.h).
struct GenCounters {
  telemetry::Counter Iterations = telemetry::counter("polygen.iterations");
  telemetry::Counter LPSolves = telemetry::counter("polygen.lp.solves");
  telemetry::Counter LPPivots = telemetry::counter("polygen.lp.pivots");
  telemetry::Counter LPRows = telemetry::counter("polygen.lp.rows");
  telemetry::Counter LPInfeasible =
      telemetry::counter("polygen.lp.infeasible");
  telemetry::Counter Retired = telemetry::counter("polygen.retired_constraints");
  /// Poly-path records whose inferred interval has a bound at the
  /// adjustment's step cap (HInterval::Capped).
  telemetry::Counter IntervalCapped =
      telemetry::counter("polygen.interval.capped");
  telemetry::Counter LPReused = telemetry::counter("polygen.lp.reused");
  telemetry::Counter LPWarm = telemetry::counter("polygen.lp.warm_solves");
  telemetry::Counter LPCold = telemetry::counter("polygen.lp.cold_solves");
  telemetry::Counter LPWarmFallbacks =
      telemetry::counter("polygen.lp.warm_fallbacks");
  telemetry::Counter LPPivotsWarm =
      telemetry::counter("polygen.lp.pivots_warm");
  telemetry::Counter LPPivotsCold =
      telemetry::counter("polygen.lp.pivots_cold");
  telemetry::Counter LPPresolveAttempts =
      telemetry::counter("polygen.lp.presolve.attempts");
  telemetry::Counter LPPresolveSolves =
      telemetry::counter("polygen.lp.presolve.solves");
  telemetry::Counter LPPresolveCertified =
      telemetry::counter("polygen.lp.presolve.certified");
  telemetry::Counter LPPresolveRepaired =
      telemetry::counter("polygen.lp.presolve.repaired");
  telemetry::Counter LPPresolveFallbacks =
      telemetry::counter("polygen.lp.presolve.fallbacks");
  telemetry::Counter LPPresolvePivots =
      telemetry::counter("polygen.lp.presolve.pivots");
  telemetry::Histogram LPSolveMs = telemetry::histogram("polygen.lp.solve_ms");
  /// Pivots per *re-solve* (iteration > 0 of a piece/degree attempt) --
  /// the population warm starts exist to shrink. First solves, which
  /// have no basis to start from, are excluded.
  telemetry::Histogram LPResolvePivots =
      telemetry::histogram("polygen.lp.resolve_pivots");
};
const GenCounters &genCounters() {
  static GenCounters C;
  return C;
}
} // namespace

static float bitsToFloat(uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return F;
}

static uint32_t floatToBits(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}

static uint64_t doubleKey(double D) {
  uint64_t K;
  std::memcpy(&K, &D, sizeof(K));
  return K;
}

double GeneratedImpl::evalH(float X) const {
  libm::Reduction R = libm::reduceInput(Func, X);
  if (!R.PolyPath)
    return R.Special;
  uint32_t Bits = floatToBits(X);
  for (const Special &S : Specials)
    if (S.Bits == Bits)
      return S.H;
  double TMin, TMax;
  libm::reducedDomain(Func, TMin, TMax);
  int Piece = libm::pieceIndex(R.T, TMin, TMax, NumPieces);
  const Polynomial &P = Pieces[Piece];
  double V = evalScheme(Scheme, P.Coeffs.data(), P.degree(), R.T,
                        Scheme == EvalScheme::Knuth ? &Adapted[Piece]
                                                    : nullptr);
  return libm::outputCompensate(Func, V, R);
}

PolyGenerator::PolyGenerator(ElemFunc F, GenConfig C)
    : Func(F), Config(std::move(C)) {
  if (!Config.TracePath.empty())
    telemetry::startTrace(Config.TracePath.c_str());
}

/// Candidates per streamed prepare block when GenConfig leaves it 0.
static constexpr uint64_t DefaultPrepareBlock = 1ull << 18;

std::vector<uint32_t> rfp::windowAnchors(ElemFunc Func) {
  // Dense windows around boundary values where special-path handoffs and
  // exactly representable results live.
  std::vector<float> Anchors = {0.0f, 1.0f, -1.0f, 2.0f, 0.5f};
  if (isExpFamily(Func)) {
    // The bands of tiny |x| collapse onto slivers at the reduced-domain
    // endpoints where the rounding intervals around 1 are tightest; cover
    // every binade down to the small-input handoff threshold.
    for (int K = 3; K <= 28; ++K) {
      Anchors.push_back(std::ldexp(1.0f, -K));
      Anchors.push_back(-std::ldexp(1.0f, -K));
    }
  }
  switch (Func) {
  case ElemFunc::Exp:
    Anchors.insert(Anchors.end(), {88.72284f, -104.7f, -87.0f, 88.0f});
    break;
  case ElemFunc::Exp2:
    // Integer inputs give exact powers of two.
    for (int I = -151; I <= 128; I += 1)
      Anchors.push_back(static_cast<float>(I));
    break;
  case ElemFunc::Exp10:
    Anchors.insert(Anchors.end(), {38.53184f, -45.46f, 10.0f, -37.9f});
    for (int I = -45; I <= 38; ++I)
      Anchors.push_back(static_cast<float>(I));
    break;
  case ElemFunc::Log:
  case ElemFunc::Log2:
  case ElemFunc::Log10: {
    // Powers of two (exact log2 results) and powers of ten.
    for (int I = -149; I <= 127; I += 2)
      Anchors.push_back(std::ldexp(1.0f, I));
    double P10 = 1.0;
    for (int I = 0; I <= 10; ++I, P10 *= 10.0)
      Anchors.push_back(static_cast<float>(P10));
    break;
  }
  }
  std::vector<uint32_t> Bits(Anchors.size());
  for (size_t I = 0; I < Anchors.size(); ++I)
    Bits[I] = floatToBits(Anchors[I]);
  return Bits;
}

std::vector<uint32_t> rfp::windowOnlyBits(const std::vector<uint32_t> &Anchors,
                                          uint32_t Window, uint32_t Stride) {
  // Each anchor C and its mirror C ^ 0x80000000 (the XOR adds 2^31 modulo
  // 2^32) cover the cyclic range [C - W, C + W]. Ranges that wrap at 0 or
  // 2^32 split in two; sorted by start, each range then emits only what
  // lies above everything emitted before it, so the output ascends without
  // a sort or a dedup pass.
  constexpr uint64_t Space = 1ull << 32;
  const uint64_t Len = std::min<uint64_t>(2 * uint64_t(Window) + 1, Space);
  std::vector<std::pair<uint64_t, uint64_t>> Ranges; // Half-open [Lo, Hi).
  for (uint32_t A : Anchors)
    for (uint32_t C : {A, A ^ 0x80000000u}) {
      uint64_t Lo = (uint64_t(C) + Space - Window) % Space;
      uint64_t Hi = Lo + Len;
      if (Hi <= Space) {
        Ranges.push_back({Lo, Hi});
      } else {
        Ranges.push_back({Lo, Space});
        Ranges.push_back({0, Hi - Space});
      }
    }
  std::sort(Ranges.begin(), Ranges.end());

  // Patterns on the stride already live in the implicit strided set; what
  // remains is exactly the "window only" complement, keeping the union
  // free of duplicates without materializing the strided side.
  std::vector<uint32_t> Bits;
  uint64_t Done = 0; // Every pattern below Done has been considered.
  for (auto [Lo, Hi] : Ranges) {
    Lo = std::max(Lo, Done);
    uint64_t NextOnStride = (Lo + Stride - 1) / Stride * Stride;
    for (uint64_t B = Lo; B < Hi; ++B) {
      if (B == NextOnStride) {
        NextOnStride += Stride;
        continue;
      }
      Bits.push_back(static_cast<uint32_t>(B));
    }
    Done = std::max(Done, Hi);
  }
  return Bits;
}

void PolyGenerator::CandidateSet::emit(uint64_t Begin, uint64_t End,
                                       std::vector<uint32_t> &Out) const {
  assert(Begin <= End && End <= size());
  Out.clear();
  Out.reserve(End - Begin);

  // Split position Begin into (SI strided + WI window) consumed elements:
  // binary search for the window cursor such that everything consumed
  // precedes everything not yet consumed (k-th element of two sorted
  // disjoint arrays; the strided array is implicit, value SI * Stride).
  uint64_t WLo = Begin > NumStrided ? Begin - NumStrided : 0;
  uint64_t WHi = std::min<uint64_t>(Begin, WinOnly.size());
  uint64_t WI = (WLo + WHi) / 2;
  while (true) {
    uint64_t SI = Begin - WI;
    bool WindowOk =
        WI == 0 || SI == NumStrided || WinOnly[WI - 1] < SI * Stride;
    bool StridedOk =
        SI == 0 || WI == WinOnly.size() || (SI - 1) * Stride < WinOnly[WI];
    if (WindowOk && StridedOk)
      break;
    if (!WindowOk)
      WHi = WI - 1;
    else
      WLo = WI + 1;
    WI = (WLo + WHi) / 2;
  }

  // Merge walk from the cursor. The sets are disjoint, so strict
  // comparison settles every step.
  uint64_t SI = Begin - WI;
  for (uint64_t I = Begin; I < End; ++I) {
    uint64_t SV = SI < NumStrided ? SI * Stride : ~0ull;
    uint64_t WV = WI < WinOnly.size() ? WinOnly[WI] : ~0ull;
    if (SV < WV) {
      Out.push_back(static_cast<uint32_t>(SV));
      ++SI;
    } else {
      Out.push_back(WinOnly[WI]);
      ++WI;
    }
  }
}

void PolyGenerator::initCandidates() {
  if (CandsBuilt)
    return;
  CandsBuilt = true;
  Cands.Stride = Config.SampleStride;
  Cands.NumStrided = 0xFFFFFFFFull / Config.SampleStride + 1;
  Cands.WinOnly = windowOnlyBits(windowAnchors(Func), Config.BoundaryWindow,
                                 Config.SampleStride);
}

uint64_t PolyGenerator::candidateCount() {
  initCandidates();
  return Cands.size();
}

void PolyGenerator::oracleRecords(uint64_t Begin, uint64_t End,
                                  std::vector<Record> &Out) {
  telemetry::Span SweepSpan("polygen.oracle_sweep");
  auto T0 = std::chrono::steady_clock::now();

  std::vector<uint32_t> Bits;
  Cands.emit(Begin, End, Bits);
  const size_t N = Bits.size();
  std::vector<uint64_t> Enc(N);
  std::vector<uint8_t> Keep(N, 0);
  const bool Fast = oracle_fast::enabled();

  parallelFor(
      N,
      [&](size_t CB, size_t CE) {
        // Gather the chunk's poly-path inputs, certify them as one batch,
        // and send the stragglers (boundary straddles, domain rejects) to
        // the exact oracle. AllowFast = false on the fallback: these
        // already failed certification, so a cache miss must not re-try
        // it (wasted work, double-counted fast-path telemetry).
        std::vector<size_t> Idx;
        std::vector<uint32_t> XB;
        Idx.reserve(CE - CB);
        XB.reserve(CE - CB);
        for (size_t I = CB; I < CE; ++I) {
          float X = bitsToFloat(Bits[I]);
          if (std::isnan(X) || !libm::reduceInput(Func, X).PolyPath)
            continue;
          Keep[I] = 1;
          Idx.push_back(I);
          XB.push_back(Bits[I]);
        }
        if (Fast && !XB.empty()) {
          std::vector<uint64_t> BatchEnc(XB.size());
          std::vector<uint8_t> Certified(XB.size());
          oracle_fast::evalToOdd34Batch(Func, XB.data(), XB.size(),
                                        BatchEnc.data(), Certified.data());
          for (size_t J = 0; J < XB.size(); ++J)
            Enc[Idx[J]] = Certified[J]
                              ? BatchEnc[J]
                              : oracle_cache::evalToOdd34(Func, XB[J],
                                                          /*AllowFast=*/false);
        } else {
          for (size_t J = 0; J < XB.size(); ++J)
            Enc[Idx[J]] = oracle_cache::evalToOdd34(Func, XB[J]);
        }
      },
      Config.NumThreads);

  // Serial compaction in candidate order: the record stream is what the
  // merge sees, so its order is the determinism contract.
  Out.clear();
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I)
    if (Keep[I])
      Out.push_back({Bits[I], Enc[I]});

  Breakdown.OracleMs += std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - T0)
                            .count();
}

void PolyGenerator::consumeRecords(const Record *Recs, size_t N) {
  FPFormat F34 = FPFormat::fp34();

  // Pass B (parallel, independent per record): rounding interval from the
  // stored encoding, range reduction, inverse output compensation.
  struct DerivedInput {
    double Y34;
    double T;
    double Lo, Hi;
    bool PIValid;
  };
  std::vector<DerivedInput> Derived(N);
  {
    telemetry::Span IntervalSpan("polygen.interval_infer");
    auto T0 = std::chrono::steady_clock::now();
    const GenCounters &TC = genCounters();
    parallelFor(
        N,
        [&](size_t Begin, size_t End) {
          uint64_t Capped = 0;
          for (size_t I = Begin; I < End; ++I) {
            assert(F34.isFinite(Recs[I].Enc) &&
                   "poly-path input with non-finite oracle");
            double Y34 = F34.decode(Recs[I].Enc);
            HInterval HI = roundingIntervalROEnc(Recs[I].Enc, F34);
            libm::Reduction R =
                libm::reduceInput(Func, bitsToFloat(Recs[I].Bits));
            HInterval PI = inferPolyInterval(Func, R, HI.Lo, HI.Hi);
            Derived[I] = {Y34, R.T, PI.Lo, PI.Hi, PI.Valid};
            Capped += PI.Capped;
          }
          TC.IntervalCapped.add(Capped);
        },
        Config.NumThreads);
    Breakdown.IntervalMs += std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - T0)
                                .count();
  }

  // Serial merge in record (= candidate) order -- the exact order the
  // original serial loop used -- so the constraint set, the intersection
  // outcomes, and the forced specials are bit-identical for every thread
  // count and block size.
  telemetry::Span MergeSpan("polygen.merge");
  auto T1 = std::chrono::steady_clock::now();
  // Room for every record of the block to open a constraint, grown at
  // least geometrically: reserving exactly that per block would move every
  // constraint (and rehash every key) once per block.
  if (Constraints.size() + N > Constraints.capacity())
    Constraints.reserve(
        std::max(Constraints.size() + N, 2 * Constraints.capacity()));
  if (MergeIndex.size() + N >
      MergeIndex.bucket_count() * MergeIndex.max_load_factor())
    MergeIndex.reserve(std::max(MergeIndex.size() + N, 2 * MergeIndex.size()));
  for (size_t I = 0; I < N; ++I) {
    const DerivedInput &D = Derived[I];
    uint32_t XBits = Recs[I].Bits;
    if (!D.PIValid) {
      ForcedSpecials.push_back({XBits, D.Y34});
      continue;
    }

    auto [It, Fresh] =
        MergeIndex.try_emplace(doubleKey(D.T), Constraints.size());
    if (Fresh) {
      Constraints.push_back(
          {D.T, D.Lo, D.Hi, D.Lo, D.Hi, {XBits}, false, {}});
      continue;
    }
    MergedConstraint &M = Constraints[It->second];
    double NewAlpha = std::max(M.Alpha, D.Lo);
    double NewBeta = std::min(M.Beta, D.Hi);
    if (NewAlpha > NewBeta) {
      // The paper's CombineRedIntervals would report an empty intersection;
      // we keep the existing constraint and special-case the new input.
      ForcedSpecials.push_back({XBits, D.Y34});
      continue;
    }
    M.Alpha = NewAlpha;
    M.Beta = NewBeta;
    M.Alpha0 = std::max(M.Alpha0, D.Lo);
    M.Beta0 = std::min(M.Beta0, D.Hi);
    M.Inputs.push_back(XBits);
  }
  NumInputs += N;
  Breakdown.MergeMs += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - T1)
                           .count();
}

void PolyGenerator::finalizePrepare() {
  auto T0 = std::chrono::steady_clock::now();
  MergeIndex = {};
  // Sort by T through (T, index) keys and the T-only comparator a sort of
  // the constraints themselves would use: std::sort's moves follow its
  // comparisons alone, so equal keys (+0.0 and -0.0) land as they would
  // there. The permutation is then applied in place, cycle by cycle: a
  // sorted second vector would hold two arrays of constraints at once.
  const size_t N = Constraints.size();
  std::vector<std::pair<double, size_t>> Keys(N);
  for (size_t I = 0; I < N; ++I)
    Keys[I] = {Constraints[I].T, I};
  std::sort(Keys.begin(), Keys.end(), [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  // Keys[I].second: the constraint that belongs at I; I once it is there.
  for (size_t I = 0; I < N; ++I) {
    if (Keys[I].second == I)
      continue;
    MergedConstraint Held = std::move(Constraints[I]);
    size_t J = I;
    while (Keys[J].second != I) {
      Constraints[J] = std::move(Constraints[Keys[J].second]);
      J = std::exchange(Keys[J].second, J);
    }
    Constraints[J] = std::move(Held);
    Keys[J].second = J;
  }
  Keys = {};
  // Convert each reduced input to its exact form once: T is immutable for
  // the constraint's lifetime, so every LP build below reuses this value
  // instead of re-running Rational::fromDouble per iteration.
  parallelFor(
      N,
      [&](size_t Begin, size_t End) {
        for (size_t I = Begin; I < End; ++I)
          Constraints[I].TX = Rational::fromDouble(Constraints[I].T);
      },
      Config.NumThreads);
  Breakdown.FinalizeMs += std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - T0)
                              .count();
  telemetry::logf(LogLevel::Info, "polygen",
                  "inputs: %zu, constraints: %zu, forced specials: %zu",
                  NumInputs, Constraints.size(), ForcedSpecials.size());
}

void PolyGenerator::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  telemetry::Span PrepareSpan("polygen.prepare");
  initCandidates();
  Breakdown = PrepareBreakdown();
  uint64_t Accepts0 = telemetry::counterValue("oracle.fast.accepts");
  uint64_t Fallbacks0 = telemetry::counterValue("oracle.fast.fallbacks") +
                        telemetry::counterValue("oracle.fast.rejects");

  const uint64_t Total = Cands.size();
  const uint64_t Block = Config.PrepareBlockCandidates
                             ? Config.PrepareBlockCandidates
                             : DefaultPrepareBlock;
  telemetry::logf(LogLevel::Info, "polygen",
                  "candidates: %llu (block %llu)",
                  static_cast<unsigned long long>(Total),
                  static_cast<unsigned long long>(Block));

  std::vector<Record> Records;
  for (uint64_t B = 0; B < Total; B += Block) {
    uint64_t E = std::min<uint64_t>(Total, B + Block);
    oracleRecords(B, E, Records);
    consumeRecords(Records.data(), Records.size());
    // One progress line per completed block, from the driver thread: the
    // workers carry no progress bookkeeping at all.
    if (E < Total && telemetry::logEnabled(LogLevel::Info))
      telemetry::logf(LogLevel::Info, "polygen",
                      "oracle progress: %llu/%llu candidates",
                      static_cast<unsigned long long>(E),
                      static_cast<unsigned long long>(Total));
  }

  Breakdown.FastAccepts =
      telemetry::counterValue("oracle.fast.accepts") - Accepts0;
  Breakdown.FastFallbacks = telemetry::counterValue("oracle.fast.fallbacks") +
                            telemetry::counterValue("oracle.fast.rejects") -
                            Fallbacks0;
  finalizePrepare();
}

/// Evaluates a candidate under the scheme with the shipped operation order.
static double evalCandidate(EvalScheme S, const Polynomial &P,
                            const KnuthAdapted &KA, double T) {
  return evalScheme(S, P.Coeffs.data(), P.degree(), T,
                    S == EvalScheme::Knuth ? &KA : nullptr);
}

bool PolyGenerator::generatePiece(EvalScheme S,
                                  std::vector<MergedConstraint *> &Piece,
                                  unsigned Degree, size_t &Root,
                                  GeneratedImpl &Impl, Polynomial &OutPoly,
                                  KnuthAdapted &OutKA, PieceBasis &DegreeHint) {
  if (Piece.empty()) {
    // No constraints in this sub-domain: any polynomial works.
    OutPoly.Coeffs.assign(Degree + 1, 0.0);
    OutKA = KnuthAdapted();
    if (S == EvalScheme::Knuth) {
      OutPoly.Coeffs[Degree] = 0x1p-80; // Give the adaptation a lead term.
      OutKA = adaptCoefficients(OutPoly.Coeffs.data(), Degree);
    }
    return true;
  }

  // Retires a constraint whose interval was exhausted: its inputs become
  // explicit special cases (what the paper counts in Table 1). Returns
  // false when the special-case budget is exceeded.
  // The oracle values were already computed during prepare(), so these
  // re-queries (repeated on every degree/shape attempt that retires the
  // same constraint) hit the memoizing cache instead of re-running Ziv.
  FPFormat F34 = FPFormat::fp34();
  const GenCounters &TC = genCounters();
  auto RetireConstraint = [&](MergedConstraint &M) {
    if (Impl.Specials.size() + M.Inputs.size() >
        static_cast<size_t>(Config.MaxSpecialCases))
      return false;
    for (uint32_t XBits : M.Inputs) {
      double Y34 = F34.decode(oracle_cache::evalToOdd34(Func, XBits));
      Impl.Specials.push_back({XBits, Y34});
    }
    M.Dead = true;
    TC.Retired.inc();
    return true;
  };

  // The LP system: the constraints in Order that are still InLP, in that
  // (insertion) order, with their current bounds. It starts as the
  // progressive sample, evenly spaced constraints with the extremes
  // included, and each iteration retires, shrinks or appends constraints.
  std::vector<size_t> Order;
  std::vector<char> InLP(Piece.size(), 0);
  size_t Step = std::max<size_t>(1, Piece.size() / Config.MaxLPConstraints);
  for (size_t I = 0; I < Piece.size(); I += Step)
    Order.push_back(I);
  if (Order.back() != Piece.size() - 1)
    Order.push_back(Piece.size() - 1);
  for (size_t I : Order)
    InLP[I] = 1;

  // The memo answers every system an earlier attempt of this (piece
  // layout, piece, degree) posed, so while it answers, the loop only
  // checks and shrinks. At the first miss one PolyLPSession is built from
  // the live system, and from then on the shrink loop mirrors its edits
  // into the session as it makes them: no constraint is rebuilt, and each
  // re-solve warm-starts from the previous optimal basis. Solves the warm
  // path cannot serve go through the hinted presolve. Either way the
  // answer is bit-identical to a cold solve of the same rows (see
  // DESIGN.md, "Incremental LP re-solving").
  std::optional<PolyLPSession> Session;
  // Handle maps a piece index to its session constraint id, ConToPiece
  // back. Session ids are sequential and never reused, so the inverse
  // survives retires.
  std::vector<size_t> Handle(Piece.size(), SIZE_MAX);
  std::vector<size_t> ConToPiece;
  auto AddToSession = [&](size_t I) {
    Handle[I] = Session->addConstraint(Piece[I]->TX,
                                       Rational::fromDouble(Piece[I]->Alpha),
                                       Rational::fromDouble(Piece[I]->Beta));
    assert(Handle[I] == ConToPiece.size() && "session ids are sequential");
    ConToPiece.push_back(I);
  };
  // Builds the session from the live system and seeds its presolver with
  // \p Hint, the basis of the last answer (at iteration 0, the lower
  // degree's). Hint rows whose constraint is not in the system are
  // dropped; the presolve's exact repair fills the remaining basis slots.
  auto BuildSession = [&](const PieceBasis &Hint) {
    telemetry::Span BuildSpan("polygen.constraint_build");
    std::vector<unsigned> Terms(Degree + 1);
    for (unsigned E = 0; E <= Degree; ++E)
      Terms[E] = E;
    Session.emplace(std::move(Terms), Config.NumThreads);
    Session->setPresolve(true);
    for (size_t I : Order)
      if (InLP[I])
        AddToSession(I);
    if (Hint.empty())
      return;
    std::vector<PolyLPSession::PolyBasisRow> Rows;
    for (const auto &[I, Side] : Hint) {
      if (Side == 2)
        Rows.push_back({0, 2});
      else if (I < Handle.size() && Handle[I] != SIZE_MAX)
        Rows.push_back({Handle[I], Side});
    }
    Session->hintBasis(Rows);
  };
  // Solves the live system and hangs the answer in the memo: at Root when
  // Parent is SIZE_MAX, else as Parent's child under Edits.
  auto SolveAndMemoize = [&](unsigned Iter, size_t Parent,
                             std::vector<uint64_t> &Edits) {
    const SimplexSession::Stats StatsBefore = Session->lpStats();
    auto LPStart = std::chrono::steady_clock::now();
    PolyLPResult LP = [&] {
      // One span per LP solve: the trace's "polygen.lp_solve" event count
      // equals GenStats' LPSolves - LPReused by construction.
      telemetry::Span SolveSpan("polygen.lp_solve");
      return Session->solve();
    }();
    double LPMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - LPStart)
                      .count();
    Impl.Stats.LPTimeMs += LPMs;
    Impl.Stats.LPPivots += LP.Pivots;
    Impl.Stats.LPRows += LP.Rows;
    Impl.Stats.LPExactPricings += LP.ExactPricings;
    TC.LPSolveMs.record(LPMs);
    TC.LPPivots.add(LP.Pivots);
    TC.LPRows.add(LP.Rows);
    // Three-way attribution: every solve is warm, presolved, or pure
    // cold. The presolve detail counters (certified/repaired/pivots) live
    // in the session's stats; diffing around the solve attributes them to
    // this piece/degree attempt.
    if (LP.Warm) {
      ++Impl.Stats.LPWarmSolves;
      Impl.Stats.LPWarmPivots += LP.Pivots;
      TC.LPWarm.inc();
      TC.LPPivotsWarm.add(LP.Pivots);
    } else if (!LP.Presolved) {
      ++Impl.Stats.LPColdSolves;
      Impl.Stats.LPColdPivots += LP.Pivots;
      TC.LPCold.inc();
      TC.LPPivotsCold.add(LP.Pivots);
    }
    if (LP.WarmFallback) {
      ++Impl.Stats.LPWarmFallbacks;
      TC.LPWarmFallbacks.inc();
    }
    const SimplexSession::Stats &Now = Session->lpStats();
    auto Delta = [&](uint64_t SimplexSession::Stats::*F) {
      return Now.*F - StatsBefore.*F;
    };
    Impl.Stats.LPPresolveAttempts += Delta(&SimplexSession::Stats::PresolveAttempts);
    Impl.Stats.LPPresolveSolves += Delta(&SimplexSession::Stats::PresolveSolves);
    Impl.Stats.LPPresolveCertified += Delta(&SimplexSession::Stats::PresolveCertified);
    Impl.Stats.LPPresolveRepaired += Delta(&SimplexSession::Stats::PresolveRepaired);
    Impl.Stats.LPPresolveFallbacks += Delta(&SimplexSession::Stats::PresolveFallbacks);
    Impl.Stats.LPPresolvePivots += Delta(&SimplexSession::Stats::PresolvePivots);
    TC.LPPresolveAttempts.add(Delta(&SimplexSession::Stats::PresolveAttempts));
    TC.LPPresolveSolves.add(Delta(&SimplexSession::Stats::PresolveSolves));
    TC.LPPresolveCertified.add(Delta(&SimplexSession::Stats::PresolveCertified));
    TC.LPPresolveRepaired.add(Delta(&SimplexSession::Stats::PresolveRepaired));
    TC.LPPresolveFallbacks.add(Delta(&SimplexSession::Stats::PresolveFallbacks));
    TC.LPPresolvePivots.add(Delta(&SimplexSession::Stats::PresolvePivots));
    if (Iter > 0)
      TC.LPResolvePivots.record(static_cast<double>(LP.Pivots));

    LPMemoNode A;
    A.Feasible = LP.Feasible;
    A.Poly = std::move(LP.Poly);
    A.Margin = std::move(LP.Margin);
    if (LP.Feasible)
      for (const PolyLPSession::PolyBasisRow &R : Session->lastBasisRows())
        A.Basis.emplace_back(R.Side == 2 ? 0 : ConToPiece[R.Con], R.Side);
    size_t Node = LPMemo.size();
    LPMemo.push_back(std::move(A));
    if (Parent == SIZE_MAX)
      Root = Node;
    else
      LPMemo[Parent].Next.emplace_back(std::move(Edits), Node);
    return Node;
  };

  // Progressive-degree plumbing: LastGoodBasis is the basis of the most
  // recent feasible answer. ExportHint runs on the failure exits and hands
  // it to the next (higher-degree) attempt to seed its presolver with.
  PieceBasis LastGoodBasis;
  auto ExportHint = [&] { DegreeHint = std::move(LastGoodBasis); };

  // Node answers this iteration's system, SIZE_MAX on a miss; a miss
  // hangs its answer under Parent, keyed by the edit list that led here.
  size_t Node = Root, Parent = SIZE_MAX;
  std::vector<uint64_t> Edits;
  for (unsigned Iter = 0; Iter < Config.MaxIterations; ++Iter) {
    ++Impl.LoopIterations;
    TC.Iterations.inc();
    telemetry::Span IterSpan("polygen.iteration");

    ++Impl.LPSolves;
    TC.LPSolves.inc();
    if (Node != SIZE_MAX) {
      ++Impl.Stats.LPReused;
      TC.LPReused.inc();
    } else {
      if (!Session)
        BuildSession(Iter == 0 ? DegreeHint : LastGoodBasis);
      Node = SolveAndMemoize(Iter, Parent, Edits);
    }
    const LPMemoNode &LP = LPMemo[Node];
    if (!LP.Feasible) {
      TC.LPInfeasible.inc();
      telemetry::logf(LogLevel::Debug, "polygen",
                      "iter %u: LP infeasible (deg %u, %zu cons)", Iter,
                      Degree,
                      static_cast<size_t>(
                          std::count(InLP.begin(), InLP.end(), 1)));
      ExportHint();
      return false;
    }
    LastGoodBasis = LP.Basis;

    Polynomial P = LP.Poly.toDouble();
    // Flush effectively-zero coefficients: the margin-maximizing LP is
    // free to place a meaningless coefficient anywhere inside the margin
    // slack, including deep below the scale where the term could affect
    // any rounding interval; tiny coefficients also breed subnormal
    // intermediates whose denormal assists cost two orders of magnitude
    // in evaluation latency. Everything below CoeffFlushThreshold
    // (2^-512 -- far above the subnormal range; see PolyGen.h for the
    // policy) is snapped to exact zero, and the check step below
    // re-validates the flushed polynomial against every constraint.
    for (double &Coef : P.Coeffs)
      if (std::fabs(Coef) < CoeffFlushThreshold)
        Coef = 0.0;
    KnuthAdapted KA;
    if (S == EvalScheme::Knuth) {
      KA = adaptCoefficients(P.Coeffs.data(), P.degree());
      if (!KA.Valid) {
        telemetry::logf(LogLevel::Debug, "polygen",
                        "iter %u: adaptation invalid (lead %a)", Iter,
                        P.Coeffs.back());
        ExportHint();
        return false; // Degree not adaptable; caller escalates.
      }
    }
    if (Iter < 6)
      telemetry::logf(LogLevel::Debug, "polygen",
                      "iter %u deg %u lead=%a margin=%.3g", Iter, Degree,
                      P.Coeffs.back(), LP.Margin.toDouble());

    // Check step (Algorithm 2 lines 13-17): evaluate with the shipped
    // operation order on *every* live constraint of the piece. The
    // evaluations are read-only and independent, so they run in parallel,
    // and each chunk returns its violators as (piece index, value) pairs;
    // concatenated in chunk order, they ascend by index for every thread
    // count. The constraint mutations below stay serial and visit only
    // the violators, in that order, keeping the shrink/retire sequence
    // bit-identical for every thread count.
    using Violator = std::pair<size_t, double>;
    std::vector<Violator> Violators;
    {
      telemetry::Span CheckSpan("polygen.check");
      Violators = parallelReduce<std::vector<Violator>>(
          Piece.size(), {},
          [&](size_t Begin, size_t End) {
            std::vector<Violator> Found;
            for (size_t I = Begin; I < End; ++I) {
              const MergedConstraint &M = *Piece[I];
              if (M.Dead)
                continue;
              double V = evalCandidate(S, P, KA, M.T);
              if (V < M.Alpha || V > M.Beta)
                Found.emplace_back(I, V);
            }
            return Found;
          },
          [](std::vector<Violator> Acc, std::vector<Violator> Found) {
            Acc.insert(Acc.end(), Found.begin(), Found.end());
            return Acc;
          },
          Config.NumThreads);
    }

    telemetry::Span ShrinkSpan("polygen.interval_shrink");
    const size_t Violations = Violators.size();
    Edits.clear();
    for (size_t VI = 0; VI < Violations; ++VI) {
      const auto [I, V] = Violators[VI];
      MergedConstraint &M = *Piece[I];
      // ConstrainInterval: move the violated bound one step inward.
      if (V < M.Alpha)
        M.Alpha = std::nextafter(M.Alpha, HUGE_VAL);
      else
        M.Beta = std::nextafter(M.Beta, -HUGE_VAL);
      if (VI < 3)
        telemetry::logf(LogLevel::Debug, "polygen",
                        "  violation t=%a v=%a bounds=[%a,%a]", M.T, V,
                        M.Alpha, M.Beta);
      if (M.Alpha > M.Beta && !RetireConstraint(M)) {
        telemetry::logf(LogLevel::Debug, "polygen",
                        "  special budget exhausted at t=%a", M.T);
        ExportHint();
        return false; // Special budget exhausted; escalate the shape.
      }
      // Record the edit in the next system's memo key (the piece index,
      // then retired or the new bounds' bits) and apply it to the system:
      // retired constraints leave, shrunk bounds are converted (once a
      // session exists, these are the only Rational conversions), and
      // newly violated constraints join, appended in ascending index
      // order.
      Edits.push_back(uint64_t(I) << 1 | uint64_t(M.Dead));
      if (M.Dead) {
        InLP[I] = 0;
        if (Handle[I] != SIZE_MAX) {
          Session->retire(Handle[I]);
          Handle[I] = SIZE_MAX;
        }
        continue;
      }
      Edits.push_back(doubleKey(M.Alpha));
      Edits.push_back(doubleKey(M.Beta));
      if (Handle[I] != SIZE_MAX) {
        Session->updateBound(Handle[I], Rational::fromDouble(M.Alpha),
                             Rational::fromDouble(M.Beta));
      } else if (!InLP[I]) {
        Order.push_back(I);
        InLP[I] = 1;
        if (Session)
          AddToSession(I);
      }
    }
    if (Violations == 0) {
      OutPoly = std::move(P);
      OutKA = KA;
      return true;
    }
    if (Iter + 1 == Config.MaxIterations)
      telemetry::logf(LogLevel::Info, "polygen",
                      "piece failed to converge: %zu violations at final "
                      "iteration",
                      Violations);
    // The next system is memoized when an earlier attempt made the same
    // edits from this one. Keys are compared in full.
    Parent = Node;
    Node = SIZE_MAX;
    for (const auto &[Key, Child] : LPMemo[Parent].Next)
      if (Key == Edits) {
        Node = Child;
        break;
      }
  }
  ExportHint();
  return false;
}

GeneratedImpl PolyGenerator::generate(EvalScheme S) {
  assert(Prepared && "call prepare() first");
  telemetry::Span GenSpan("polygen.generate");
  GeneratedImpl Impl;
  Impl.Func = Func;
  Impl.Scheme = S;
  Impl.NumInputs = NumInputs;
  Impl.NumConstraints = Constraints.size();
  Impl.Specials = ForcedSpecials;

  double TMin, TMax;
  libm::reducedDomain(Func, TMin, TMax);

  for (int NumPieces : Config.PieceLadder) {
    // Restore pristine bounds and retired constraints, and roll back any
    // special cases a failed shape accumulated.
    for (MergedConstraint &M : Constraints) {
      M.Alpha = M.Alpha0;
      M.Beta = M.Beta0;
      M.Dead = false;
    }
    Impl.Specials.assign(ForcedSpecials.begin(), ForcedSpecials.end());

    std::vector<std::vector<MergedConstraint *>> Pieces(NumPieces);
    for (MergedConstraint &M : Constraints)
      Pieces[libm::pieceIndex(M.T, TMin, TMax, NumPieces)].push_back(&M);

    bool AllOk = true;
    std::vector<Polynomial> Polys(NumPieces);
    std::vector<KnuthAdapted> KAs(NumPieces);
    std::vector<unsigned> Degrees(NumPieces, 0);

    for (int PieceIdx = 0; PieceIdx < NumPieces && AllOk; ++PieceIdx) {
      bool PieceOk = false;
      // The progressive-degree hint: a failed attempt leaves its last
      // feasible basis here (piece-local constraint indices), and the
      // next degree up seeds its LP presolver with it.
      PieceBasis DegreeHint;
      for (unsigned Degree : Config.DegreeLadder) {
        if (S == EvalScheme::Knuth && (Degree < 4 || Degree > 6))
          continue; // Adaptation exists only for degrees 4..6.
        // Each degree attempt starts from pristine bounds for this piece
        // and rolls back any special cases it retired on failure.
        for (MergedConstraint *M : Pieces[PieceIdx]) {
          M->Alpha = M->Alpha0;
          M->Beta = M->Beta0;
          M->Dead = false;
        }
        size_t SpecialsMark = Impl.Specials.size();
        size_t &Root =
            LPMemoRoots.try_emplace({NumPieces, PieceIdx, Degree}, SIZE_MAX)
                .first->second;
        if (generatePiece(S, Pieces[PieceIdx], Degree, Root, Impl,
                          Polys[PieceIdx], KAs[PieceIdx], DegreeHint)) {
          Degrees[PieceIdx] = Degree;
          PieceOk = true;
          break;
        }
        Impl.Specials.resize(SpecialsMark);
      }
      if (!PieceOk)
        AllOk = false;
    }
    if (!AllOk) {
      telemetry::logf(LogLevel::Info, "polygen",
                      "%s/%s: shape with %d piece(s) failed; escalating",
                      elemFuncName(Func), evalSchemeName(S), NumPieces);
      continue;
    }

    Impl.Success = true;
    Impl.NumPieces = NumPieces;
    Impl.Pieces = std::move(Polys);
    Impl.Adapted = std::move(KAs);
    Impl.PieceDegrees = std::move(Degrees);
    return Impl;
  }
  return Impl; // Success == false.
}

std::vector<IntervalConstraint> PolyGenerator::exportLPConstraints() const {
  assert(Prepared && "call prepare() first");
  std::vector<IntervalConstraint> Out;
  Out.reserve(Constraints.size());
  for (const MergedConstraint &M : Constraints)
    Out.push_back({M.TX, Rational::fromDouble(M.Alpha),
                   Rational::fromDouble(M.Beta)});
  return Out;
}

size_t PolyGenerator::countPostProcessViolations(const GeneratedImpl &Base,
                                                 EvalScheme S) {
  assert(Prepared && Base.Success);
  double TMin, TMax;
  libm::reducedDomain(Func, TMin, TMax);

  // Pure counting sweep: each constraint contributes independently, so the
  // chunks run in parallel and the per-chunk counts merge in chunk order
  // (sum of size_t -- order-insensitive, but the merge rule keeps the
  // pattern uniform with the other sweeps).
  return parallelReduce<size_t>(
      Constraints.size(), 0,
      [&](size_t Begin, size_t End) {
        size_t BadInputs = 0;
        for (size_t I = Begin; I < End; ++I) {
          const MergedConstraint &M = Constraints[I];
          int Piece = libm::pieceIndex(M.T, TMin, TMax, Base.NumPieces);
          const Polynomial &P = Base.Pieces[Piece];
          KnuthAdapted KA;
          if (S == EvalScheme::Knuth) {
            KA = adaptCoefficients(P.Coeffs.data(), P.degree());
            if (!KA.Valid)
              continue;
          }
          // Count only *additional* damage: constraints the baseline scheme
          // satisfies but the post-process-adapted evaluation violates.
          // (Constraints the baseline already special-cases violate under
          // every scheme and are not the post-process effect the paper
          // measures.)
          double BaseV = evalCandidate(Base.Scheme, P,
                                       Base.Scheme == EvalScheme::Knuth
                                           ? Base.Adapted[Piece]
                                           : KA,
                                       M.T);
          if (BaseV < M.Alpha0 || BaseV > M.Beta0)
            continue;
          double V = evalCandidate(S, P, KA, M.T);
          if (V < M.Alpha0 || V > M.Beta0)
            BadInputs += M.Inputs.size();
        }
        return BadInputs;
      },
      [](size_t A, size_t B) { return A + B; }, Config.NumThreads);
}
