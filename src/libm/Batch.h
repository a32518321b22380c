//===- libm/Batch.h - Batch (array) evaluation API -------------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Array entry points for the shipped functions: evaluate N inputs in one
/// call, backed by hand-written SIMD kernels (AVX2+FMA, AVX-512, NEON on
/// aarch64) with a portable scalar-loop fallback, selected once per
/// process by runtime CPUID dispatch (the resolved kernel table is cached;
/// there is no per-call feature test). roundBatch is the matching array
/// form of format/mode rounding, served from the same resolved set.
/// Callers use rfp::evalBatch / rfp::evalBatchH (libm/rfp.h), which add
/// the FE-mode guarantee on top of these raw entry points.
///
/// The contract that makes the batch layer safe to use anywhere the
/// per-call API is: for every element, the H (double) result is
/// **bit-identical** to the corresponding `<func>_<scheme>(float)` core.
/// The RLibm-All guarantee -- rounding H to any FP(k, 8) format with
/// 10 <= k <= 32 under any of the five IEEE modes yields the correctly
/// rounded f(x) -- is therefore inherited from the scalar cores rather
/// than re-proven (DESIGN.md, "Batch evaluation layer").
///
/// \p In and the output buffer must not overlap.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_LIBM_BATCH_H
#define RFP_LIBM_BATCH_H

#include "fp/FPFormat.h"
#include "poly/EvalScheme.h"
#include "support/ElemFunc.h"
#include "support/Rounding.h"

#include <cstddef>
#include <cstdint>

namespace rfp {
namespace libm {

/// Instruction sets the batch dispatcher can resolve to.
enum class BatchISA { Scalar, AVX2, AVX512, NEON };

inline constexpr BatchISA AllBatchISAs[4] = {BatchISA::Scalar, BatchISA::AVX2,
                                             BatchISA::AVX512, BatchISA::NEON};

/// Display name ("scalar", "avx2", "avx512", "neon").
const char *batchISAName(BatchISA ISA);

/// The ISA resolved for this process: the best compiled-in kernel set the
/// CPU supports. The environment variable
/// RFP_BATCH_ISA=scalar|avx2|avx512|neon|auto overrides the choice
/// (consulted once, at first use). Forcing an ISA the CPU or build cannot
/// provide falls back to scalar; an unrecognized value warns once through
/// the leveled logger and resolves as auto (the best detected ISA).
BatchISA activeBatchISA();

/// Evaluates f over In[0..N) under scheme S, writing the H (double)
/// results. Bit-identical to calling evalCore per element. Asserts the
/// variant is available (see variantInfo).
void evalBatch(ElemFunc F, EvalScheme S, const float *In, double *H,
               size_t N);

/// Same, with an explicit ISA (testing / benchmarking). An ISA that is not
/// compiled in or not supported by this CPU falls back to scalar.
void evalBatchWithISA(BatchISA ISA, ElemFunc F, EvalScheme S, const float *In,
                      double *H, size_t N);

/// Rounds H[0..N) into \p Fmt under \p M: Enc[i] == Fmt.roundDouble(H[i],
/// M) bit for bit. The rounding tier of evalBatch's encodings, lane-parallel
/// and integer-only on the AVX2 and AVX-512 sets (formats with precision
/// <= 52); NEON, the scalar set and wider formats loop over roundDouble.
/// H and Enc must not overlap.
void roundBatch(const double *H, uint64_t *Enc, size_t N, const FPFormat &Fmt,
                RoundingMode M);

/// Same, with an explicit ISA (testing / benchmarking), resolved as
/// evalBatchWithISA resolves it.
void roundBatch(BatchISA ISA, const double *H, uint64_t *Enc, size_t N,
                const FPFormat &Fmt, RoundingMode M);

} // namespace libm
} // namespace rfp

#endif // RFP_LIBM_BATCH_H
