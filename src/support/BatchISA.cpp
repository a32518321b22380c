//===- support/BatchISA.cpp - Batch-kernel ISA resolution -----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The RFP_HAVE_*_KERNELS macros are the build's ISA options
// (src/CMakeLists.txt), defined for this TU and for every library with
// kernels behind them, so "usable" means the same thing to all of them.
//
//===----------------------------------------------------------------------===//

#include "support/BatchISA.h"

#include "support/Telemetry.h"

#include <cstdlib>
#include <cstring>

using namespace rfp;

namespace {

/// Best usable ISA, widest first.
BatchISA bestISA() {
  for (BatchISA ISA : {BatchISA::AVX512, BatchISA::AVX2, BatchISA::NEON})
    if (batchISAUsable(ISA))
      return ISA;
  return BatchISA::Scalar;
}

/// \p ISA if usable, scalar otherwise (the pin-an-ISA contract).
BatchISA pinned(BatchISA ISA) {
  return batchISAUsable(ISA) ? ISA : BatchISA::Scalar;
}

/// Reads RFP_BATCH_ISA. An unrecognized value warns and resolves as auto,
/// so a typo degrades to the best detected ISA instead of silently losing
/// the vector kernels.
BatchISA resolve() {
  const char *Env = std::getenv("RFP_BATCH_ISA");
  if (!Env || std::strcmp(Env, "auto") == 0)
    return bestISA();
  for (BatchISA ISA : AllBatchISAs)
    if (std::strcmp(Env, batchISAName(ISA)) == 0)
      return pinned(ISA);
  BatchISA Best = bestISA();
  telemetry::logf(telemetry::LogLevel::Warn, "libm.batch",
                  "unknown RFP_BATCH_ISA value \"%s\" (expected "
                  "scalar|avx2|avx512|neon|auto); using best detected "
                  "ISA (%s)",
                  Env, batchISAName(Best));
  return Best;
}

} // namespace

const char *rfp::batchISAName(BatchISA ISA) {
  switch (ISA) {
  case BatchISA::Scalar:
    return "scalar";
  case BatchISA::AVX2:
    return "avx2";
  case BatchISA::AVX512:
    return "avx512";
  case BatchISA::NEON:
    return "neon";
  }
  return "??";
}

bool rfp::batchISAUsable(BatchISA ISA) {
  switch (ISA) {
  case BatchISA::Scalar:
    return true;
  case BatchISA::AVX2:
#ifdef RFP_HAVE_AVX2_KERNELS
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
  case BatchISA::AVX512:
#ifdef RFP_HAVE_AVX512_KERNELS
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl");
#else
    return false;
#endif
  case BatchISA::NEON:
    // Baseline on aarch64: no CPUID gate.
#ifdef RFP_HAVE_NEON_KERNELS
    return true;
#else
    return false;
#endif
  }
  return false;
}

BatchISA rfp::activeBatchISA() {
  static const BatchISA ISA = resolve();
  return ISA;
}
