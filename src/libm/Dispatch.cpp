//===- libm/Dispatch.cpp - Dynamic dispatch and result rounding -----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "libm/BatchKernels.h"
#include "libm/Frame.h"
#include "libm/rlibm.h"
#include "support/Telemetry.h"

using namespace rfp;
using namespace rfp::libm;

const SchemeTable *rfp::libm::detail::tablesFor(ElemFunc F) {
  switch (F) {
  case ElemFunc::Exp:
    return expTables();
  case ElemFunc::Exp2:
    return exp2Tables();
  case ElemFunc::Exp10:
    return exp10Tables();
  case ElemFunc::Log:
    return logTables();
  case ElemFunc::Log2:
    return log2Tables();
  case ElemFunc::Log10:
    return log10Tables();
  }
  __builtin_unreachable();
}

const BatchSchemeTable *rfp::libm::detail::batchTablesFor(ElemFunc F) {
  switch (F) {
  case ElemFunc::Exp:
    return expBatchTables();
  case ElemFunc::Exp2:
    return exp2BatchTables();
  case ElemFunc::Exp10:
    return exp10BatchTables();
  case ElemFunc::Log:
    return logBatchTables();
  case ElemFunc::Log2:
    return log2BatchTables();
  case ElemFunc::Log10:
    return log10BatchTables();
  }
  __builtin_unreachable();
}

double (*rfp::libm::detail::scalarCoreFor(ElemFunc F, EvalScheme S))(float) {
  using Fn = double (*)(float);
  // Indexed [func][scheme] in enum order.
  static constexpr Fn Table[6][4] = {
      {exp_horner, exp_knuth, exp_estrin, exp_estrin_fma},
      {exp2_horner, exp2_knuth, exp2_estrin, exp2_estrin_fma},
      {exp10_horner, exp10_knuth, exp10_estrin, exp10_estrin_fma},
      {log_horner, log_knuth, log_estrin, log_estrin_fma},
      {log2_horner, log2_knuth, log2_estrin, log2_estrin_fma},
      {log10_horner, log10_knuth, log10_estrin, log10_estrin_fma},
  };
  return Table[static_cast<int>(F)][static_cast<int>(S)];
}

double rfp::libm::evalCore(ElemFunc F, EvalScheme S, float X) {
  assert(detail::tablesFor(F)[static_cast<int>(S)].Available &&
         "variant not generated");
  // The dynamic-dispatch path is the scalar counterpart of the per-ISA
  // batch counters; direct core calls (the benchmarks' measured loops)
  // stay uninstrumented.
  static const telemetry::Counter Calls =
      telemetry::counter("libm.dispatch.calls.scalar");
  Calls.inc();
  return detail::scalarCoreFor(F, S)(X);
}

uint64_t rfp::libm::roundResult(double H, const FPFormat &Fmt,
                                RoundingMode M) {
  return Fmt.roundDouble(H, M);
}

VariantInfo rfp::libm::variantInfo(ElemFunc F, EvalScheme S) {
  const SchemeTable &T = detail::tablesFor(F)[static_cast<int>(S)];
  VariantInfo Info;
  Info.Available = T.Available;
  Info.NumPieces = T.NumPieces;
  for (int P = 0; P < T.NumPieces; ++P)
    Info.MaxDegree = std::max(Info.MaxDegree, T.Degrees[P]);
  Info.NumSpecials = T.NumSpecials;
  Info.LPSolves = T.LPSolves;
  Info.LoopIterations = T.LoopIterations;
  Info.GenInputs = T.GenInputs;
  Info.GenConstraints = T.GenConstraints;
  return Info;
}
