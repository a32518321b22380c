//===- libm/Rfp.cpp - Unified public evaluation API -----------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The rfp:: surface is a thin adapter over the cores (rlibm.h) and the
// batch dispatcher (Batch.h) plus the one piece of behavior the legacy
// tiers do not have: dynamic-FP-environment independence. The cores'
// polynomial arithmetic runs in double and follows the ambient rounding
// mode, so a caller living under fesetround(FE_UPWARD) would perturb H
// and lose the correct-rounding guarantee. Every entry point here pins
// round-to-nearest for the duration of the evaluation and restores the
// caller's mode afterwards (FeNearestScope below). The save/restore is
// two libc calls when the ambient mode is already nearest-even -- noise
// against even a single polynomial evaluation, and amortized over the
// whole array for the batch forms.
//
// The FP work itself happens in other translation units (Functions.cpp,
// the batch kernel TUs) behind non-inlinable calls, so the compiler
// cannot move it across the fesetround calls even though FENV_ACCESS is
// not modeled.
//
//===----------------------------------------------------------------------===//

#include "libm/rfp.h"

#include "support/Telemetry.h"

#include <cassert>
#include <cfenv>

using namespace rfp;

namespace {

/// Pins FE_TONEAREST for the current scope and restores the caller's
/// dynamic rounding mode on exit. The MultiRound guard: see rfp.h.
struct FeNearestScope {
  int Saved;
  bool Restore;
  FeNearestScope() : Saved(std::fegetround()) {
    Restore = Saved != FE_TONEAREST;
    if (Restore)
      std::fesetround(FE_TONEAREST);
  }
  ~FeNearestScope() {
    if (Restore)
      std::fesetround(Saved);
  }
  FeNearestScope(const FeNearestScope &) = delete;
  FeNearestScope &operator=(const FeNearestScope &) = delete;
};

} // namespace

std::string rfp::variantKeyName(const VariantKey &K) {
  std::string Name = elemFuncName(K.Func);
  Name += '/';
  Name += evalSchemeName(K.Scheme);
  Name += "/fp";
  Name += std::to_string(K.Format.totalBits());
  Name += '/';
  Name += roundingModeName(K.Mode);
  return Name;
}

bool rfp::available(ElemFunc F, EvalScheme S) {
  return libm::variantInfo(F, S).Available;
}

double rfp::evalH(ElemFunc F, EvalScheme S, float X) {
  FeNearestScope Guard;
  return libm::evalCore(F, S, X);
}

EvalResult rfp::eval(const VariantKey &K, float X) {
  EvalResult R;
  {
    FeNearestScope Guard;
    R.H = libm::evalCore(K.Func, K.Scheme, X);
  }
  R.Enc = libm::roundResult(R.H, K.Format, K.Mode);
  return R;
}

void rfp::evalBatchH(ElemFunc F, EvalScheme S, const float *In, double *H,
                     size_t N) {
  FeNearestScope Guard;
  libm::evalBatch(F, S, In, H, N);
}

void rfp::evalBatchH(libm::BatchISA ISA, ElemFunc F, EvalScheme S,
                     const float *In, double *H, size_t N) {
  FeNearestScope Guard;
  libm::evalBatchWithISA(ISA, F, S, In, H, N);
}

void rfp::evalBatch(const VariantKey &K, const float *In, uint64_t *Enc,
                    size_t N, double *H) {
  static const telemetry::Counter Calls = telemetry::counter("rfp.eval_batch");
  static const telemetry::Counter Elems =
      telemetry::counter("rfp.eval_batch.elems");
  Calls.inc();
  Elems.add(N);
  if (H) {
    evalBatchH(K.Func, K.Scheme, In, H, N);
    libm::roundBatch(H, Enc, N, K.Format, K.Mode);
    return;
  }
  double Staging[1024];
  while (N > 0) {
    size_t Chunk = N < 1024 ? N : 1024;
    evalBatchH(K.Func, K.Scheme, In, Staging, Chunk);
    libm::roundBatch(Staging, Enc, Chunk, K.Format, K.Mode);
    In += Chunk;
    Enc += Chunk;
    N -= Chunk;
  }
}

VariantRange rfp::variants(unsigned MinBits, unsigned MaxBits) {
  if (MinBits < 10)
    MinBits = 10;
  if (MaxBits > 32)
    MaxBits = 32;
  assert(MinBits <= MaxBits && "empty format family");
  return VariantRange(MinBits, MaxBits);
}
