//===- tools/polygen.cpp - Generate the shipped coefficient tables --------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives the integrated generate-adapt-check-constrain pipeline (paper
// Algorithm 2) for the six elementary functions and all four evaluation
// schemes, and emits src/libm/generated/<Func>Coeffs.inc plus the
// SIMD-layout twin <Func>Batch.inc the batch kernels gather from. Run from
// the repository root:
//
//   polygen [stride] [window] [func ...]
//   polygen --batch [func ...]
//
// stride:  float bit-pattern sampling stride for generation inputs (>= 1)
// window:  dense boundary window half-width (bit patterns)
// func:    subset of {exp, exp2, exp10, log, log2, log10}; default all
// --batch: skip generation and re-emit only the <Func>Batch.inc files from
//          the *committed* coefficient tables (compiled into this binary),
//          guaranteeing the SoA layout and the scalar tables can never
//          drift apart.
//
// Numbers are whole decimals (no sign, no overflow); a malformed number,
// an unknown argument or a bad shard flag exits with status 2, a failed
// generation or write with status 1.
//
// After generation, a patch pass checks each function's four candidate
// tables over six fixed float32 strides with the verification engine
// (verify::runSweep, the candidates as its H source, one RO_34 comparison
// per input) and patches every input that misses into that scheme's
// special-case table before the tables are written.
//
// Observability (see DESIGN.md, "Observability"):
//   --trace <file>         stream Chrome trace_event JSON (chrome://tracing
//                          / Perfetto); same as RFP_TRACE=<file>
//   --metrics-json <file>  dump the telemetry counter/histogram registry on
//                          exit ("-" = stdout)
//   --smoke                generation only: skip the patch pass and do
//                          not write .inc files (CI smoke runs)
//
// Resumable sharded runs (see DESIGN.md, "Sharded and resumable prepare"):
//   --shard-dir <dir>      directory holding the shard set (manifest +
//                          per-shard oracle records)
//   --shard K/M            worker mode: compute only shard K of M (0-based)
//                          into --shard-dir and exit; no generation. Any
//                          number of workers may run concurrently or across
//                          interruptions, sharing the directory.
//   --shards M             full run through the shard store: compute every
//                          missing shard, then assemble prepare() from the
//                          set and continue with normal generation. Output
//                          is bit-identical to an unsharded run.
//   --resume               with --shard/--shards: skip shards that already
//                          validate (header + checksum); recompute the rest
//
// Progress goes through the telemetry logger (component "polygen"); the
// tool raises the log level to info unless RFP_LOG_LEVEL overrides it.
//
//===----------------------------------------------------------------------===//

#include "core/PolyGen.h"

#include "libm/Frame.h"
#include "poly/Codegen.h"
#include "support/Telemetry.h"
#include "verify/Verify.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace rfp;

// The committed scalar tables, for --batch re-emission. Namespaced exactly
// like src/libm/Functions.cpp so the same .inc files compile unchanged.
namespace {
namespace exp_gen {
#include "libm/generated/ExpCoeffs.inc"
}
namespace exp2_gen {
#include "libm/generated/Exp2Coeffs.inc"
}
namespace exp10_gen {
#include "libm/generated/Exp10Coeffs.inc"
}
namespace log_gen {
#include "libm/generated/LogCoeffs.inc"
}
namespace log2_gen {
#include "libm/generated/Log2Coeffs.inc"
}
namespace log10_gen {
#include "libm/generated/Log10Coeffs.inc"
}
} // namespace

namespace {

const char *incName(ElemFunc F) {
  switch (F) {
  case ElemFunc::Exp:
    return "Exp";
  case ElemFunc::Exp2:
    return "Exp2";
  case ElemFunc::Exp10:
    return "Exp10";
  case ElemFunc::Log:
    return "Log";
  case ElemFunc::Log2:
    return "Log2";
  case ElemFunc::Log10:
    return "Log10";
  }
  return "";
}

const char *schemeIdent(EvalScheme S) {
  switch (S) {
  case EvalScheme::Horner:
    return "Horner";
  case EvalScheme::Knuth:
    return "Knuth";
  case EvalScheme::Estrin:
    return "Estrin";
  case EvalScheme::EstrinFMA:
    return "EstrinFMA";
  }
  return "";
}

void emitScheme(FILE *Out, const char *Ident, const GeneratedImpl &Impl,
                const GeneratedImpl &Fallback) {
  // An unavailable variant carries the Horner data (never dispatched to;
  // callers must consult SchemeTable::Available).
  const GeneratedImpl &Use = Impl.Success ? Impl : Fallback;

  std::fprintf(Out, "// --- %s%s\n", Ident,
               Impl.Success ? "" : " (UNAVAILABLE: fallback data)");
  std::fprintf(Out, "inline constexpr unsigned %sDegrees[] = {", Ident);
  for (int P = 0; P < Use.NumPieces; ++P)
    std::fprintf(Out, "%u,", Use.PieceDegrees[P]);
  std::fprintf(Out, "};\n");

  std::fprintf(Out,
               "inline constexpr double %sCoeffs[][rfp::MaxPolyDegree + 1] = "
               "{\n",
               Ident);
  for (int P = 0; P < Use.NumPieces; ++P) {
    std::fprintf(Out, "    {");
    for (unsigned D = 0; D <= rfp::MaxPolyDegree; ++D)
      std::fprintf(Out, "%a,",
                   D < Use.Pieces[P].Coeffs.size() ? Use.Pieces[P].Coeffs[D]
                                                   : 0.0);
    std::fprintf(Out, "},\n");
  }
  std::fprintf(Out, "};\n");

  bool IsKnuth = std::strcmp(Ident, "Knuth") == 0;
  if (IsKnuth) {
    std::fprintf(Out, "inline constexpr double %sAdapted[][7] = {\n", Ident);
    for (int P = 0; P < Use.NumPieces; ++P) {
      std::fprintf(Out, "    {");
      for (int D = 0; D < 7; ++D)
        std::fprintf(Out, "%a,",
                     (Impl.Success && Use.Adapted[P].Valid) ? Use.Adapted[P].A[D]
                                                            : 0.0);
      std::fprintf(Out, "},\n");
    }
    std::fprintf(Out, "};\n");
  }

  std::fprintf(Out,
               "inline constexpr rfp::libm::SpecialEntry %sSpecials[] = {\n",
               Ident);
  if (Use.Specials.empty())
    std::fprintf(Out, "    {0u, 0.0}, // placeholder; count below is 0\n");
  for (const GeneratedImpl::Special &Sp : Use.Specials)
    std::fprintf(Out, "    {0x%08xu, %a},\n", Sp.Bits, Sp.H);
  std::fprintf(Out, "};\n");

  std::fprintf(
      Out,
      "inline constexpr rfp::libm::SchemeTable %s = {\n"
      "    /*Available=*/%s, /*NumPieces=*/%d, %sDegrees, %sCoeffs,\n"
      "    /*Adapted=*/%s, %sSpecials, /*NumSpecials=*/%d,\n"
      "    /*LPSolves=*/%uu, /*LoopIterations=*/%uu,\n"
      "    /*GenInputs=*/%lluull, /*GenConstraints=*/%lluull,\n"
      "};\n\n",
      Ident, Impl.Success ? "true" : "false", Use.NumPieces, Ident, Ident,
      IsKnuth ? (std::string(Ident) + "Adapted").c_str() : "nullptr", Ident,
      static_cast<int>(Use.Specials.size()), Impl.LPSolves,
      Impl.LoopIterations,
      static_cast<unsigned long long>(Impl.NumInputs),
      static_cast<unsigned long long>(Impl.NumConstraints));
}

/// One scheme's coefficient data in the shape emitBatchTable consumes.
struct BatchSource {
  bool Available = false;
  int NumPieces = 1;
  std::vector<unsigned> Degrees;
  std::vector<double> Coeffs; ///< [NumPieces][MaxPolyDegree + 1] row-major.
};

BatchSource batchSourceFromImpl(const GeneratedImpl &Impl,
                                const GeneratedImpl &Fallback) {
  // Mirrors emitScheme: an unavailable variant carries the fallback data.
  const GeneratedImpl &Use = Impl.Success ? Impl : Fallback;
  BatchSource Src;
  Src.Available = Impl.Success;
  Src.NumPieces = Use.NumPieces;
  for (int P = 0; P < Use.NumPieces; ++P) {
    Src.Degrees.push_back(Use.PieceDegrees[P]);
    for (unsigned D = 0; D <= MaxPolyDegree; ++D)
      Src.Coeffs.push_back(D < Use.Pieces[P].Coeffs.size()
                               ? Use.Pieces[P].Coeffs[D]
                               : 0.0);
  }
  return Src;
}

BatchSource batchSourceFromTable(const libm::SchemeTable &T) {
  BatchSource Src;
  Src.Available = T.Available;
  Src.NumPieces = T.NumPieces;
  for (int P = 0; P < T.NumPieces; ++P) {
    Src.Degrees.push_back(T.Degrees[P]);
    for (unsigned D = 0; D <= MaxPolyDegree; ++D)
      Src.Coeffs.push_back(T.Coeffs[P][D]);
  }
  return Src;
}

/// Writes src/libm/generated/<Func>Batch.inc: the four schemes'
/// coefficients in the SoA layout (emitBatchTable) the batch kernels
/// gather from. Returns false if the file cannot be opened.
bool writeBatchInc(ElemFunc F, const BatchSource Sources[4],
                   const char *Provenance) {
  std::string Path =
      std::string("src/libm/generated/") + incName(F) + "Batch.inc";
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s (run from the repo root)\n",
                 Path.c_str());
    return false;
  }
  std::fprintf(Out,
               "// Generated by tools/polygen (%s).\n"
               "// SIMD (structure-of-arrays) twin of %sCoeffs.inc: same\n"
               "// coefficients, rows padded for 4-lane gathers. Do not edit\n"
               "// by hand. See DESIGN.md, \"Batch evaluation layer\".\n\n",
               Provenance, incName(F));
  for (int S = 0; S < 4; ++S) {
    std::string Code = emitBatchTable(
        schemeIdent(static_cast<EvalScheme>(S)), Sources[S].Available,
        Sources[S].NumPieces, Sources[S].Degrees.data(),
        Sources[S].Coeffs.data(), MaxPolyDegree + 1);
    std::fputs(Code.c_str(), Out);
  }
  std::fclose(Out);
  std::fprintf(stderr, "  wrote %s\n", Path.c_str());
  return true;
}

/// --batch mode: re-emit every <Func>Batch.inc from the committed scalar
/// tables compiled into this binary (no generation, no oracle).
int emitBatchFromCommitted(const std::vector<ElemFunc> &Funcs) {
  for (ElemFunc F : Funcs) {
    const libm::SchemeTable *Tables = nullptr;
    switch (F) {
    case ElemFunc::Exp: {
      static const libm::SchemeTable T[4] = {exp_gen::Horner, exp_gen::Knuth,
                                             exp_gen::Estrin,
                                             exp_gen::EstrinFMA};
      Tables = T;
      break;
    }
    case ElemFunc::Exp2: {
      static const libm::SchemeTable T[4] = {exp2_gen::Horner, exp2_gen::Knuth,
                                             exp2_gen::Estrin,
                                             exp2_gen::EstrinFMA};
      Tables = T;
      break;
    }
    case ElemFunc::Exp10: {
      static const libm::SchemeTable T[4] = {
          exp10_gen::Horner, exp10_gen::Knuth, exp10_gen::Estrin,
          exp10_gen::EstrinFMA};
      Tables = T;
      break;
    }
    case ElemFunc::Log: {
      static const libm::SchemeTable T[4] = {log_gen::Horner, log_gen::Knuth,
                                             log_gen::Estrin,
                                             log_gen::EstrinFMA};
      Tables = T;
      break;
    }
    case ElemFunc::Log2: {
      static const libm::SchemeTable T[4] = {log2_gen::Horner, log2_gen::Knuth,
                                             log2_gen::Estrin,
                                             log2_gen::EstrinFMA};
      Tables = T;
      break;
    }
    case ElemFunc::Log10: {
      static const libm::SchemeTable T[4] = {
          log10_gen::Horner, log10_gen::Knuth, log10_gen::Estrin,
          log10_gen::EstrinFMA};
      Tables = T;
      break;
    }
    }
    BatchSource Sources[4];
    for (int S = 0; S < 4; ++S)
      Sources[S] = batchSourceFromTable(Tables[S]);
    if (!writeBatchInc(F, Sources, "--batch, from the committed tables"))
      return 1;
  }
  return 0;
}

/// Post-generation patch pass: sweeps every implementation over several
/// independent float32 bit-pattern strides through the verification
/// engine, with the candidates as its H source, and patches each input
/// whose H misses the oracle's RO_34 result into that scheme's
/// special-case table (the paper's special-case mechanism, applied to
/// inputs the sampled generation did not see). One stride's patches are
/// in place before the next stride's sweep. NaN or infinite wants are
/// reported, not patched. Returns the number of patches applied.
size_t patchPass(ElemFunc F, GeneratedImpl Impls[4]) {
  static constexpr uint64_t Strides[] = {104729, 33331, 15013,
                                         7919,   2000003, 3200093};
  const FPFormat F34 = FPFormat::fp34();
  verify::SweepConfig C;
  C.Funcs = {F};
  for (int S = 0; S < 4; ++S)
    if (Impls[S].Success)
      C.Schemes.push_back(static_cast<EvalScheme>(S));
  C.MinBits = C.MaxBits = 32;
  C.MaxRecordsPerUnit = UINT_MAX;
  C.Candidate = [Impls](ElemFunc, EvalScheme S, const float *In, double *H,
                        size_t N) {
    const GeneratedImpl &Impl = Impls[static_cast<int>(S)];
    for (size_t I = 0; I < N; ++I)
      H[I] = Impl.evalH(In[I]);
  };
  size_t Patched = 0;
  for (uint64_t Stride : Strides) {
    C.Stride = Stride;
    for (const verify::UnitOutcome &O : verify::runSweep(C).Units)
      for (const verify::Mismatch &M : O.R.Records) {
        const char *Variant = evalSchemeName(O.U.Scheme);
        float X;
        std::memcpy(&X, &M.XBits, sizeof(X));
        double Got = F34.decode(M.GotEnc), Want = F34.decode(M.WantEnc);
        if (!std::isfinite(Want)) {
          std::fprintf(stderr, "  PATCH-FATAL: %s/%s x=%a RO34 %a, want %a\n",
                       elemFuncName(F), Variant, static_cast<double>(X), Got,
                       Want);
          continue;
        }
        Impls[M.Scheme].Specials.push_back({M.XBits, Want});
        ++Patched;
        std::fprintf(stderr, "  patched %s/%s x=%a (RO34 %a, want %a)\n",
                     elemFuncName(F), Variant, static_cast<double>(X), Got,
                     Want);
      }
  }
  return Patched;
}

/// Usage errors exit with status 2 (1 means generation or I/O failed).
int usage(const char *Msg) {
  std::fprintf(stderr,
               "polygen: %s\n"
               "usage: polygen [--batch] [stride] [window] [func ...] "
               "[options]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  GenConfig Cfg;
  Cfg.SampleStride = 2521;
  Cfg.BoundaryWindow = 2048;
  Cfg.DegreeLadder = {3, 4, 5, 6};

  std::vector<ElemFunc> Funcs;
  int ArgIdx = 1;
  bool BatchOnly = false;
  bool Smoke = false;
  bool Resume = false;
  bool Worker = false;    // --shard K/M worker mode: only shard ShardK.
  unsigned ShardK = 0;
  unsigned NumShards = 0; // Shard count from --shard K/M or --shards M.
  std::string ShardDir;
  std::string MetricsPath;
  if (ArgIdx < Argc && std::strcmp(Argv[ArgIdx], "--batch") == 0) {
    BatchOnly = true;
    ++ArgIdx;
  }
  // Observability flags may appear anywhere after --batch.
  std::vector<char *> Rest;
  for (; ArgIdx < Argc; ++ArgIdx) {
    if (std::strcmp(Argv[ArgIdx], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(Argv[ArgIdx], "--trace") == 0 && ArgIdx + 1 < Argc)
      telemetry::startTrace(Argv[++ArgIdx]);
    else if (std::strncmp(Argv[ArgIdx], "--trace=", 8) == 0)
      telemetry::startTrace(Argv[ArgIdx] + 8);
    else if (std::strcmp(Argv[ArgIdx], "--metrics-json") == 0 &&
             ArgIdx + 1 < Argc)
      MetricsPath = Argv[++ArgIdx];
    else if (std::strncmp(Argv[ArgIdx], "--metrics-json=", 15) == 0)
      MetricsPath = Argv[ArgIdx] + 15;
    else if (std::strcmp(Argv[ArgIdx], "--shard-dir") == 0 &&
             ArgIdx + 1 < Argc)
      ShardDir = Argv[++ArgIdx];
    else if (std::strncmp(Argv[ArgIdx], "--shard-dir=", 12) == 0)
      ShardDir = Argv[ArgIdx] + 12;
    else if (std::strcmp(Argv[ArgIdx], "--shard") == 0 && ArgIdx + 1 < Argc) {
      if (!shard::parseShardFlag(Argv[++ArgIdx], &ShardK, NumShards))
        return usage("--shard expects K/M with 0 <= K < M");
      Worker = true;
    } else if (std::strcmp(Argv[ArgIdx], "--shards") == 0 &&
               ArgIdx + 1 < Argc) {
      if (!shard::parseShardFlag(Argv[++ArgIdx], nullptr, NumShards))
        return usage("--shards expects a positive count");
    } else if (std::strcmp(Argv[ArgIdx], "--resume") == 0)
      Resume = true;
    else
      Rest.push_back(Argv[ArgIdx]);
  }
  if (NumShards != 0 && ShardDir.empty())
    return usage("--shard/--shards require --shard-dir <dir>");
  size_t RestIdx = 0;
  uint64_t V = 0;
  if (RestIdx < Rest.size() && std::isdigit(Rest[RestIdx][0])) {
    if (!parseCount(Rest[RestIdx++], 1, UINT32_MAX, V))
      return usage("stride must be a number in [1, 4294967295]");
    Cfg.SampleStride = static_cast<uint32_t>(V);
  }
  if (RestIdx < Rest.size() && std::isdigit(Rest[RestIdx][0])) {
    if (!parseCount(Rest[RestIdx++], 0, UINT32_MAX, V))
      return usage("window must be a number in [0, 4294967295]");
    Cfg.BoundaryWindow = static_cast<uint32_t>(V);
  }
  for (; RestIdx < Rest.size(); ++RestIdx) {
    const size_t Before = Funcs.size();
    for (ElemFunc F : AllElemFuncs)
      if (std::strcmp(Rest[RestIdx], elemFuncName(F)) == 0)
        Funcs.push_back(F);
    if (Funcs.size() == Before)
      return usage(("unknown argument " + std::string(Rest[RestIdx])).c_str());
  }
  if (Funcs.empty())
    Funcs.assign(AllElemFuncs, AllElemFuncs + 6);

  if (BatchOnly)
    return emitBatchFromCommitted(Funcs);

  // Keep the tool chatty by default, but let an explicit RFP_LOG_LEVEL win.
  if (!std::getenv("RFP_LOG_LEVEL"))
    telemetry::setLogLevel(telemetry::LogLevel::Info);

  for (ElemFunc F : Funcs) {
    std::fprintf(stderr, "=== %s (stride %u, window %u)\n", elemFuncName(F),
                 Cfg.SampleStride, Cfg.BoundaryWindow);
    PolyGenerator Gen(F, Cfg);
    if (NumShards != 0) {
      const shard::ShardSet Set = Gen.shardSet(ShardDir, NumShards);
      std::string Err;
      // Compute the requested shard (worker mode) or every missing one.
      unsigned KBegin = Worker ? ShardK : 0;
      unsigned KEnd = Worker ? ShardK + 1 : NumShards;
      for (unsigned K = KBegin; K < KEnd; ++K) {
        if (Resume && shard::shardValid(Set, K)) {
          std::fprintf(stderr, "  shard %u/%u already valid, skipping\n", K,
                       NumShards);
          continue;
        }
        std::fprintf(stderr, "  computing shard %u/%u\n", K, NumShards);
        if (!Gen.prepareShard(K, NumShards, ShardDir, &Err)) {
          std::fprintf(stderr, "FATAL: shard %u/%u: %s\n", K, NumShards,
                       Err.c_str());
          return 1;
        }
      }
      if (Worker)
        continue; // Worker mode stops after its shard.
      if (!Gen.prepareFromShards(ShardDir, NumShards, &Err)) {
        std::fprintf(stderr, "FATAL: assembling shards: %s\n", Err.c_str());
        return 1;
      }
    } else {
      Gen.prepare();
    }

    GeneratedImpl Impls[4];
    for (int S = 0; S < 4; ++S) {
      Impls[S] = Gen.generate(static_cast<EvalScheme>(S));
      std::fprintf(stderr, "  %s: %s pieces=%d specials=%zu lp=%u\n",
                   evalSchemeName(static_cast<EvalScheme>(S)),
                   Impls[S].Success ? "ok" : "UNAVAILABLE", Impls[S].NumPieces,
                   Impls[S].Specials.size(), Impls[S].LPSolves);
    }
    if (!Impls[0].Success) {
      std::fprintf(stderr, "FATAL: Horner baseline failed for %s\n",
                   elemFuncName(F));
      return 1;
    }
    if (Smoke) {
      std::fprintf(stderr, "  --smoke: skipping verification and output\n");
      continue;
    }
    size_t Patched = patchPass(F, Impls);
    std::fprintf(stderr, "  verification sweeps: %zu special-case patches\n",
                 Patched);

    std::string Path =
        std::string("src/libm/generated/") + incName(F) + "Coeffs.inc";
    FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot open %s (run from the repo root)\n",
                   Path.c_str());
      return 1;
    }
    std::fprintf(Out,
                 "// Generated by tools/polygen (stride %u, window %u).\n"
                 "// Do not edit by hand. See DESIGN.md.\n\n",
                 Cfg.SampleStride, Cfg.BoundaryWindow);
    for (int S = 0; S < 4; ++S)
      emitScheme(Out, schemeIdent(static_cast<EvalScheme>(S)), Impls[S],
                 Impls[0]);
    std::fclose(Out);
    std::fprintf(stderr, "  wrote %s\n", Path.c_str());

    BatchSource Sources[4];
    for (int S = 0; S < 4; ++S)
      Sources[S] = batchSourceFromImpl(Impls[S], Impls[0]);
    char Provenance[64];
    std::snprintf(Provenance, sizeof(Provenance), "stride %u, window %u",
                  Cfg.SampleStride, Cfg.BoundaryWindow);
    if (!writeBatchInc(F, Sources, Provenance))
      return 1;
  }
  if (!MetricsPath.empty())
    telemetry::writeMetricsJsonFile(MetricsPath.c_str());
  telemetry::stopTrace();
  return 0;
}
