//===- libm/BatchKernels.h - Internal batch-kernel interface ---*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal interface between the batch dispatcher (Batch.cpp), the
/// ISA-specific kernel translation units (BatchKernelsAVX2.cpp,
/// BatchKernelsAVX512.cpp, BatchKernelsNEON.cpp), and the SIMD-friendly
/// coefficient layout emitted by tools/polygen into
/// src/libm/generated/<Func>Batch.inc. Nothing here is public API; consumers
/// use libm/Batch.h.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_LIBM_BATCHKERNELS_H
#define RFP_LIBM_BATCHKERNELS_H

#include "libm/Frame.h"
#include "support/Rounding.h"

#include <cstddef>
#include <cstdint>

namespace rfp {
namespace libm {

/// Structure-of-arrays view of one generated implementation's coefficients,
/// emitted next to the scalar SchemeTable by tools/polygen. Row I of
/// CoeffsSoA holds coefficient I of every piece, padded to PiecePad entries
/// so rows stay 32-byte aligned and a 32-bit piece-index gather can fetch
/// four lanes' coefficients in one instruction.
struct BatchSchemeTable {
  bool Available;
  int NumPieces;
  int PiecePad;           ///< Row stride: NumPieces rounded up to 4.
  int32_t UniformDegree;  ///< Degree shared by every piece, or 0 when mixed.
  int32_t NumDistinctDegrees;
  int32_t DistinctDegrees[4];
  const int32_t *Degrees;  ///< [PiecePad] per-piece degree, gather-friendly.
  const double *CoeffsSoA; ///< [(MaxPolyDegree + 1) * PiecePad], 32B aligned.
};

/// A batch kernel evaluates one (function, scheme) core over N inputs,
/// writing the H (double) results. Kernels guarantee bit-identity with the
/// per-call scalar core on every element.
using BatchKernelFn = void (*)(const float *In, double *H, size_t N);

/// A rounding kernel rounds H[0..N) into FP(TotalBits, ExpBits) under the
/// one mode it was instantiated for, writing encodings bit-identical to
/// FPFormat::roundDouble. The format crosses into the ISA TUs as two
/// integers, so those TUs never touch an FPFormat member. Kernels require
/// precision = TotalBits - ExpBits <= 52 (see DESIGN.md, "Rounding tier").
using RoundKernelFn = void (*)(const double *H, uint64_t *Enc, size_t N,
                               unsigned TotalBits, unsigned ExpBits);

namespace detail {

/// Per-function access to the four SIMD coefficient tables, in EvalScheme
/// order (mirrors the SchemeTable accessors in Frame.h).
const BatchSchemeTable *expBatchTables();
const BatchSchemeTable *exp2BatchTables();
const BatchSchemeTable *exp10BatchTables();
const BatchSchemeTable *logBatchTables();
const BatchSchemeTable *log2BatchTables();
const BatchSchemeTable *log10BatchTables();
const BatchSchemeTable *batchTablesFor(ElemFunc F);

/// The per-call scalar core for (F, S) -- the same entry points evalCore
/// dispatches to. The kernels use it for lane fallback and loop tails.
double (*scalarCoreFor(ElemFunc F, EvalScheme S))(float);

/// Per-ISA kernel tables, each defined only in its own TU (the only
/// objects built with that ISA's flags; see src/CMakeLists.txt). Entries
/// are null where no vector kernel exists (log10/Knuth: the variant is not
/// generated) and the dispatcher substitutes the scalar loop. The Knuth
/// entries mirror the host compiler's FMA-contraction choices for the
/// scalar adapted forms and are additionally verified by a one-time parity
/// probe at dispatch resolution, which demotes a mismatching kernel back
/// to the scalar loop (see DESIGN.md "Batch evaluation layer"). Each table
/// is referenced only when the matching RFP_HAVE_*_KERNELS macro is
/// defined.
extern const BatchKernelFn AVX2BatchKernels[6][4];
extern const BatchKernelFn AVX512BatchKernels[6][4];
extern const BatchKernelFn NEONBatchKernels[6][4];

/// Per-ISA rounding kernels, indexed by RoundingMode (all six modes). NEON
/// has none: its set rounds with the scalar loop.
extern const RoundKernelFn AVX2RoundKernels[6];
extern const RoundKernelFn AVX512RoundKernels[6];

} // namespace detail
} // namespace libm
} // namespace rfp

#endif // RFP_LIBM_BATCHKERNELS_H
