//===- support/BatchISA.h - Batch-kernel instruction sets ------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction sets the batch kernels run on, and the one per-process
/// choice among them. Two libraries have lane kernels -- libm's batch
/// evaluation and rounding (libm/Batch.h) and the certified fast oracle
/// (oracle/OracleFast.h) -- and neither links the other, so the CPUID
/// checks and the RFP_BATCH_ISA override live here, below both. Both
/// resolve through activeBatchISA(), so one environment variable pins
/// every kernel in the process. libm re-exports these names as
/// libm::BatchISA, libm::activeBatchISA() and libm::batchISAName().
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SUPPORT_BATCHISA_H
#define RFP_SUPPORT_BATCHISA_H

namespace rfp {

/// Instruction sets the batch dispatchers can resolve to.
enum class BatchISA { Scalar, AVX2, AVX512, NEON };

inline constexpr BatchISA AllBatchISAs[4] = {BatchISA::Scalar, BatchISA::AVX2,
                                             BatchISA::AVX512, BatchISA::NEON};

/// Display name ("scalar", "avx2", "avx512", "neon").
const char *batchISAName(BatchISA ISA);

/// True when this build compiled \p ISA's kernels (the RFP_ENABLE_AVX2,
/// RFP_ENABLE_AVX512 and RFP_ENABLE_NEON options) and this CPU runs them.
/// Always true for Scalar.
bool batchISAUsable(BatchISA ISA);

/// The ISA resolved for this process, once, at first use: the best usable
/// one. The environment variable RFP_BATCH_ISA=scalar|avx2|avx512|neon|auto
/// overrides the choice. Forcing an ISA that is not usable falls back to
/// scalar; an unrecognized value warns once through the leveled logger and
/// resolves as auto (the best detected ISA).
BatchISA activeBatchISA();

} // namespace rfp

#endif // RFP_SUPPORT_BATCHISA_H
