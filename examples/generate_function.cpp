//===- examples/generate_function.cpp - Run the generator yourself --------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end pipeline demo (paper Figure 1 / Algorithm 2): generate a
// correctly rounded exp2 implementation from scratch at a reduced sampling
// scale, print the polynomial for each evaluation scheme, verify a sweep of
// inputs against the oracle, and emit compilable C code for the polynomial
// kernel.
//
//===----------------------------------------------------------------------===//

#include "core/FunctionCodegen.h"
#include "core/PolyGen.h"
#include "oracle/Oracle.h"
#include "poly/Codegen.h"
#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace rfp;

int main() {
  std::printf("Generating exp2 with the integrated fast-poly pipeline...\n");

  GenConfig Cfg;
  Cfg.SampleStride = 262147; // demo scale; tools/polygen uses 2521
  Cfg.BoundaryWindow = 256;

  // Watch the generator's progress through the telemetry logger (the
  // RFP_LOG_LEVEL=info equivalent, but with our own formatting).
  telemetry::setLogLevel(telemetry::LogLevel::Info);
  telemetry::ScopedLogSink Progress(
      [](telemetry::LogLevel, const char *Component, const std::string &S) {
        std::printf("  [%s] %s\n", Component, S.c_str());
      });

  PolyGenerator Gen(ElemFunc::Exp2, Cfg);
  Gen.prepare();

  for (EvalScheme S : AllEvalSchemes) {
    GeneratedImpl Impl = Gen.generate(S);
    if (!Impl.Success) {
      std::printf("\n%s: no implementation found (paper's N/A case)\n",
                  evalSchemeName(S));
      continue;
    }
    // Later schemes pose many of the LPs an earlier scheme already
    // solved; the generator answers those from its memo (reused).
    std::printf("\n%s: %d piece(s), LP answers %u (%llu reused), loop "
                "iterations %u, specials %zu\n",
                evalSchemeName(S), Impl.NumPieces, Impl.LPSolves,
                static_cast<unsigned long long>(Impl.Stats.LPReused),
                Impl.LoopIterations, Impl.Specials.size());
    for (int P = 0; P < Impl.NumPieces; ++P) {
      std::printf("  piece %d (degree %u):", P, Impl.PieceDegrees[P]);
      for (double C : Impl.Pieces[P].Coeffs)
        std::printf(" %a", C);
      std::printf("\n");
    }

    // Validate the implementation end to end on a fresh input stride.
    FPFormat F32 = FPFormat::float32();
    size_t Bad = 0, Checked = 0;
    for (uint64_t B = 0; B < (1ull << 32); B += 7368787) {
      float X;
      uint32_t Bits = static_cast<uint32_t>(B);
      std::memcpy(&X, &Bits, sizeof(X));
      if (std::isnan(X))
        continue;
      double H = Impl.evalH(X);
      uint64_t Want =
          Oracle::eval(ElemFunc::Exp2, X, F32, RoundingMode::NearestEven);
      uint64_t Got = F32.roundDouble(H, RoundingMode::NearestEven);
      ++Checked;
      if (!F32.isNaN(Want) && Got != Want)
        ++Bad;
      if (F32.isNaN(Want) && !F32.isNaN(Got))
        ++Bad;
    }
    std::printf("  verification: %zu wrong out of %zu sampled inputs\n", Bad,
                Checked);
  }

  // Emit a complete standalone C implementation (reduction + tables +
  // polynomial + compensation) ready for a downstream libm to vendor.
  GeneratedImpl Impl = Gen.generate(EvalScheme::EstrinFMA);
  if (Impl.Success) {
    std::printf("\nGenerated C kernel (Estrin+FMA, piece 0):\n\n%s\n",
                emitPolyFunction(EvalScheme::EstrinFMA,
                                 Impl.Pieces[0].Coeffs.data(),
                                 Impl.Pieces[0].degree(), "exp2_poly_kernel")
                    .c_str());
    std::printf("Full standalone C implementation:\n\n%s\n",
                emitFunctionC(Impl, "rlibm_exp2").c_str());
  }
  return 0;
}
