//===- libm/Batch.cpp - Batch dispatch and scalar fallback kernels --------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runtime dispatch for the batch API. The kernel table is resolved exactly
// once per process (CPUID + the RFP_BATCH_ISA override) and cached; each
// evalBatch or roundBatch call is one table load and one indirect call.
// The scalar kernels below are plain loops over the per-call cores (and
// over FPFormat::roundDouble), so they are bit-identical to the per-call
// API by construction; the vector kernels
// (BatchKernelsAVX2.cpp / BatchKernelsAVX512.cpp / BatchKernelsNEON.cpp,
// present when the matching RFP_HAVE_*_KERNELS macro is defined) earn the
// same property instruction by instruction.
//
// The Knuth kernels mirror FMA-contraction choices the host compiler made
// for the scalar adapted forms, so they are additionally guarded by a
// one-time parity probe at set resolution: each Knuth kernel is swept over
// a deterministic input set against the scalar core, and any mismatch
// demotes that slot back to the scalar loop with a logged warning (see
// DESIGN.md, "Batch evaluation layer"). RFP_BATCH_PARITY_PROBE=off skips
// the probe, =full extends it to every vector kernel; on NEON the full
// probe is always applied (the backend cannot be exercised by this
// project's x86 CI).
//
//===----------------------------------------------------------------------===//

#include "libm/Batch.h"

#include "libm/BatchKernels.h"
#include "libm/rlibm.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace rfp;
using namespace rfp::libm;

namespace {

/// Portable fallback: the per-call core in a loop. The core pointer is
/// hoisted out of the loop, so this is the existing per-call path minus
/// the per-element dispatch.
template <int FI, int SI>
void scalarKernel(const float *In, double *H, size_t N) {
  double (*Core)(float) = detail::scalarCoreFor(static_cast<ElemFunc>(FI),
                                                static_cast<EvalScheme>(SI));
  for (size_t I = 0; I < N; ++I)
    H[I] = Core(In[I]);
}

struct KernelSet {
  BatchKernelFn Fn[6][4];
  /// Rounding kernels by RoundingMode; null rounds with the scalar loop.
  RoundKernelFn Round[6];
  BatchISA ISA;
};

#define RFP_SCALAR_ROW(FI)                                                     \
  {scalarKernel<FI, 0>, scalarKernel<FI, 1>, scalarKernel<FI, 2>,              \
   scalarKernel<FI, 3>}

constexpr KernelSet ScalarSet = {
    {RFP_SCALAR_ROW(0), RFP_SCALAR_ROW(1), RFP_SCALAR_ROW(2),
     RFP_SCALAR_ROW(3), RFP_SCALAR_ROW(4), RFP_SCALAR_ROW(5)},
    {},
    BatchISA::Scalar};

#undef RFP_SCALAR_ROW

#if defined(RFP_HAVE_AVX2_KERNELS) || defined(RFP_HAVE_AVX512_KERNELS) ||      \
    defined(RFP_HAVE_NEON_KERNELS)

/// What the one-time parity probe covers when a vector set is resolved.
enum class ProbePolicy { Off, Knuth, Full };

ProbePolicy probePolicy() {
  const char *Env = std::getenv("RFP_BATCH_PARITY_PROBE");
  if (!Env || std::strcmp(Env, "knuth") == 0)
    return ProbePolicy::Knuth;
  if (std::strcmp(Env, "off") == 0)
    return ProbePolicy::Off;
  if (std::strcmp(Env, "full") == 0)
    return ProbePolicy::Full;
  telemetry::logf(telemetry::LogLevel::Warn, "libm.batch",
                  "unknown RFP_BATCH_PARITY_PROBE value \"%s\" "
                  "(expected off|knuth|full); probing knuth kernels", Env);
  return ProbePolicy::Knuth;
}

/// Deterministic probe inputs: a strided sweep of the float bit space plus
/// dense windows around the classification boundaries (the same centers
/// BatchParityTest uses). ~6k inputs; the probe runs once per process.
const std::vector<float> &probeInputs() {
  static const std::vector<float> Inputs = [] {
    std::vector<float> V;
    V.reserve(7000);
    for (uint64_t B = 0; B < (1ull << 32); B += (1ull << 20))
      V.push_back([](uint32_t Bits) {
        float X;
        std::memcpy(&X, &Bits, sizeof(X));
        return X;
      }(static_cast<uint32_t>(B)));
    const float Centers[] = {0x1.62e42ep+6f, -104.7f, 0x1p-27f,  -0x1p-27f,
                             128.0f,         -151.0f, 0x1p-26f,  3.0f,
                             0x1.344135p+5f, -45.46f, 0x1p-28f,  1.0f,
                             2.0f,           0.25f,   0x1p-126f, 0.0f};
    for (float C : Centers) {
      uint32_t Bits;
      std::memcpy(&Bits, &C, sizeof(Bits));
      for (int D = -32; D <= 32; ++D) {
        float X;
        uint32_t B = Bits + static_cast<uint32_t>(D);
        std::memcpy(&X, &B, sizeof(X));
        V.push_back(X);
      }
    }
    return V;
  }();
  return Inputs;
}

/// Bit-compares \p Fn against the scalar core over the probe set.
bool kernelMatchesScalar(BatchKernelFn Fn, ElemFunc F, EvalScheme S) {
  if (!variantInfo(F, S).Available)
    return true; // never dispatched; nothing to prove
  const std::vector<float> &In = probeInputs();
  std::vector<double> H(In.size());
  Fn(In.data(), H.data(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    double Want = evalCore(F, S, In[I]);
    if (std::memcmp(&Want, &H[I], sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Builds a vector kernel set: overlay \p Kernels onto the scalar loops,
/// demoting any probed kernel that fails bit-parity with the scalar core.
/// \p ProbeAll forces the full probe regardless of policy (NEON). The
/// rounding kernels (\p Round, null for none) are integer-only and need
/// no probe.
KernelSet overlaySet(const BatchKernelFn (&Kernels)[6][4],
                     const RoundKernelFn *Round, BatchISA ISA, bool ProbeAll) {
  ProbePolicy Policy = probePolicy();
  KernelSet S = ScalarSet;
  S.ISA = ISA;
  if (Round)
    std::copy(Round, Round + 6, S.Round);
  for (int FI = 0; FI < 6; ++FI)
    for (int SI = 0; SI < 4; ++SI) {
      BatchKernelFn K = Kernels[FI][SI];
      if (!K)
        continue;
      bool Probe =
          Policy != ProbePolicy::Off &&
          (ProbeAll || Policy == ProbePolicy::Full ||
           static_cast<EvalScheme>(SI) == EvalScheme::Knuth);
      if (Probe && !kernelMatchesScalar(K, static_cast<ElemFunc>(FI),
                                        static_cast<EvalScheme>(SI))) {
        telemetry::logf(telemetry::LogLevel::Warn, "libm.batch",
                        "%s %s/%s kernel failed the scalar parity probe; "
                        "using the scalar loop for this variant",
                        batchISAName(ISA),
                        elemFuncName(static_cast<ElemFunc>(FI)),
                        evalSchemeName(static_cast<EvalScheme>(SI)));
        telemetry::counter("libm.batch.probe.demoted").inc();
        continue;
      }
      S.Fn[FI][SI] = K;
    }
  return S;
}
#endif

#ifdef RFP_HAVE_AVX2_KERNELS
bool cpuHasAVX2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

/// The AVX2 set: vector kernels where they exist, scalar loops elsewhere.
const KernelSet &avx2Set() {
  static const KernelSet Set =
      overlaySet(detail::AVX2BatchKernels, detail::AVX2RoundKernels,
                 BatchISA::AVX2, /*ProbeAll=*/false);
  return Set;
}
#endif

#ifdef RFP_HAVE_AVX512_KERNELS
bool cpuHasAVX512() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
}

const KernelSet &avx512Set() {
  static const KernelSet Set =
      overlaySet(detail::AVX512BatchKernels, detail::AVX512RoundKernels,
                 BatchISA::AVX512, /*ProbeAll=*/false);
  return Set;
}
#endif

#ifdef RFP_HAVE_NEON_KERNELS
/// NEON is baseline on aarch64 (no CPUID gate), but the backend cannot run
/// on this project's x86 CI, so the full parity probe always applies.
const KernelSet &neonSet() {
  static const KernelSet Set =
      overlaySet(detail::NEONBatchKernels, /*Round=*/nullptr, BatchISA::NEON,
                 /*ProbeAll=*/true);
  return Set;
}
#endif

/// Best compiled-in set the CPU supports.
const KernelSet &bestSet() {
#ifdef RFP_HAVE_AVX512_KERNELS
  if (cpuHasAVX512())
    return avx512Set();
#endif
#ifdef RFP_HAVE_AVX2_KERNELS
  if (cpuHasAVX2())
    return avx2Set();
#endif
#ifdef RFP_HAVE_NEON_KERNELS
  return neonSet();
#endif
  return ScalarSet;
}

const KernelSet &setFor(BatchISA ISA) {
#ifdef RFP_HAVE_AVX2_KERNELS
  if (ISA == BatchISA::AVX2 && cpuHasAVX2())
    return avx2Set();
#endif
#ifdef RFP_HAVE_AVX512_KERNELS
  if (ISA == BatchISA::AVX512 && cpuHasAVX512())
    return avx512Set();
#endif
#ifdef RFP_HAVE_NEON_KERNELS
  if (ISA == BatchISA::NEON)
    return neonSet();
#endif
  (void)ISA;
  return ScalarSet;
}

/// One-time resolution: best compiled-in set the CPU supports, overridable
/// with RFP_BATCH_ISA=scalar|avx2|avx512|neon|auto. A recognized ISA the
/// CPU or build cannot provide falls back to scalar (the documented
/// pin-an-ISA contract); an unrecognized value warns once and resolves as
/// auto, so a typo degrades to the best detected ISA instead of silently
/// losing the vector kernels.
const KernelSet &activeSet() {
  static const KernelSet &Set = []() -> const KernelSet & {
    const char *Env = std::getenv("RFP_BATCH_ISA");
    if (!Env || std::strcmp(Env, "auto") == 0)
      return bestSet();
    if (std::strcmp(Env, "scalar") == 0)
      return ScalarSet;
    if (std::strcmp(Env, "avx2") == 0)
      return setFor(BatchISA::AVX2);
    if (std::strcmp(Env, "avx512") == 0)
      return setFor(BatchISA::AVX512);
    if (std::strcmp(Env, "neon") == 0)
      return setFor(BatchISA::NEON);
    const KernelSet &Best = bestSet();
    telemetry::logf(telemetry::LogLevel::Warn, "libm.batch",
                    "unknown RFP_BATCH_ISA value \"%s\" (expected "
                    "scalar|avx2|avx512|neon|auto); using best detected "
                    "ISA (%s)",
                    Env, batchISAName(Best.ISA));
    return Best;
  }();
  return Set;
}

/// Per-ISA batch telemetry: which kernel set served how many calls and
/// elements, and which rounded how many encodings. One counter update per
/// *batch*, not per element, so the amortized cost vanishes against the
/// kernel work.
struct BatchCounters {
  telemetry::Counter Calls[4] = {
      telemetry::counter("libm.batch.calls.scalar"),
      telemetry::counter("libm.batch.calls.avx2"),
      telemetry::counter("libm.batch.calls.avx512"),
      telemetry::counter("libm.batch.calls.neon"),
  };
  telemetry::Counter Elems[4] = {
      telemetry::counter("libm.batch.elems.scalar"),
      telemetry::counter("libm.batch.elems.avx2"),
      telemetry::counter("libm.batch.elems.avx512"),
      telemetry::counter("libm.batch.elems.neon"),
  };
  /// Elements rounded, under the ISA that produced the encodings.
  telemetry::Counter RoundElems[4] = {
      telemetry::counter("libm.round.elems.scalar"),
      telemetry::counter("libm.round.elems.avx2"),
      telemetry::counter("libm.round.elems.avx512"),
      telemetry::counter("libm.round.elems.neon"),
  };
};

const BatchCounters &batchCounters() {
  static const BatchCounters C;
  return C;
}

void countBatchCall(BatchISA ISA, size_t N) {
  const BatchCounters &C = batchCounters();
  int I = static_cast<int>(ISA);
  C.Calls[I].inc();
  C.Elems[I].add(N);
}

/// Rounds with \p Set's kernel for \p M, or with the scalar loop when the
/// set has none or the format is wider than the kernels' precision bound.
void roundWith(const KernelSet &Set, const double *H, uint64_t *Enc, size_t N,
               const FPFormat &Fmt, RoundingMode M) {
  RoundKernelFn K =
      Fmt.precision() <= 52 ? Set.Round[static_cast<int>(M)] : nullptr;
  batchCounters()
      .RoundElems[static_cast<int>(K ? Set.ISA : BatchISA::Scalar)]
      .add(N);
  if (K) {
    K(H, Enc, N, Fmt.totalBits(), Fmt.expBits());
    return;
  }
  for (size_t I = 0; I < N; ++I)
    Enc[I] = Fmt.roundDouble(H[I], M);
}

} // namespace

const char *rfp::libm::batchISAName(BatchISA ISA) {
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

BatchISA rfp::libm::activeBatchISA() { return activeSet().ISA; }

void rfp::libm::evalBatch(ElemFunc F, EvalScheme S, const float *In, double *H,
                          size_t N) {
  assert(detail::tablesFor(F)[static_cast<int>(S)].Available &&
         "variant not generated");
  const KernelSet &Set = activeSet();
  countBatchCall(Set.ISA, N);
  Set.Fn[static_cast<int>(F)][static_cast<int>(S)](In, H, N);
}

void rfp::libm::evalBatchWithISA(BatchISA ISA, ElemFunc F, EvalScheme S,
                                 const float *In, double *H, size_t N) {
  assert(detail::tablesFor(F)[static_cast<int>(S)].Available &&
         "variant not generated");
  const KernelSet &Set = setFor(ISA);
  countBatchCall(Set.ISA, N);
  Set.Fn[static_cast<int>(F)][static_cast<int>(S)](In, H, N);
}

void rfp::libm::roundBatch(const double *H, uint64_t *Enc, size_t N,
                            const FPFormat &Fmt, RoundingMode M) {
  roundWith(activeSet(), H, Enc, N, Fmt, M);
}

void rfp::libm::roundBatch(BatchISA ISA, const double *H, uint64_t *Enc,
                            size_t N, const FPFormat &Fmt, RoundingMode M) {
  roundWith(setFor(ISA), H, Enc, N, Fmt, M);
}
