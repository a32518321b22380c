//===- tools/verify.cpp - Exhaustive correctness sweep CLI ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Front end for verify/Verify.h: sweeps every input of every FP(k, 8)
// format x all five rounding modes x all shipped functions x both eval
// paths against the certified oracle, bit for bit. Every format is
// screened with one round-to-odd comparison at FP(k + 2, 8) per input,
// which proves all five modes; only a miss is compared mode by mode. At
// float32 (FP(32, 8)) that screen is the RO_34 comparison, which covers
// every format and mode for the input. Exit status is the gate: 0 only
// when every comparison matched; 2 is a usage error.
//
//   verify                                  # full default sweep
//   verify --max-bits 14                    # CI smoke: small formats only
//   verify --min-bits 32 --stride 262147    # strided float32 slice
//   verify --min-bits 32 --max-bits 32 --stride 16183 --funcs exp
//          --schemes horner                 # one variant's float32 slice
//   verify --all-isas --fe-lanes            # widest matrix
//   verify --shards 8 --shard-dir D         # sharded, resumable run
//   verify --shard 3/8 --shard-dir D        # just shard 3 (cluster use)
//   verify --resume ...                     # skip shards already on disk
//
// --json (default BENCH_verify.json) writes the coverage/throughput
// report through the shared bench envelope; CI validates it with
// python3 -m json.tool and gates on totals.mismatches == 0. The summary
// line and the report's totals also count the oracle queries -- one RO_34
// result per (function, input), shared by that function's schemes and,
// for the exhaustive formats, by every format: FP(k, 8)'s inputs are
// among its widest exhaustive format's -- and split the certified fast
// oracle's verdicts on them (accepted / boundary / domain), so a run
// answers why inputs left the fast path for the exact oracle. They also
// count the screen misses: the (unit, input) pairs whose base H missed
// the round-to-odd screen. The shipped tables' H lie inside their RO_34
// intervals, so they never miss at the exhaustive widths.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "JsonWriter.h"
#include "support/ShardFile.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace rfp;
using namespace rfp::verify;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] %s\n"
      "  --min-bits <n>         narrowest format, 10..32 (default 10)\n"
      "  --max-bits <n>         widest format, 10..32 (default 32)\n"
      "  --exhaustive-bits <n>  formats up to n <= 32 bits sweep every\n"
      "                         encoding (default 16)\n"
      "  --stride <n>           encoding stride for wider formats, >= 1\n"
      "                         (default 65537; 1 = fully exhaustive)\n"
      "  --funcs a,b,...        subset of exp,exp2,exp10,log,log2,log10\n"
      "  --schemes a,b,...      subset of horner,knuth,estrin,estrin-fma\n"
      "  --all-isas             batch path on every kernel ISA, not just\n"
      "                         the active one\n"
      "  --fe-lanes             add the MultiRound fesetround lanes\n"
      "  --threads <n>          worker threads, <= 1024 (default:\n"
      "                         RFP_THREADS/cores)\n"
      "  --max-records <n>      mismatch records kept per unit (default 64)\n"
      "  --shards <m>           split the sweep into m resumable shards\n"
      "                         of whole groups (a function's exhaustive\n"
      "                         formats, or one strided format)\n"
      "  --shard <k>/<m>        run only shard k of m (0-based)\n"
      "  --shard-dir <dir>      shard directory (required with shards)\n"
      "  --resume               reuse shards already valid on disk\n"
      "  --quiet                no per-unit progress lines\n"
      "The summary counts the oracle queries (one per function and input,\n"
      "shared by the schemes and by the exhaustive formats, whose inputs\n"
      "nest in the widest one's; one per function, format and encoding for\n"
      "strided formats) and splits the certified fast oracle's verdicts on\n"
      "them into accepted / boundary / domain (the latter two go to the\n"
      "exact oracle). It also counts the screen misses: (unit, input) pairs\n"
      "whose H and RO_34 round to odd differently at FP(k + 2, 8), the\n"
      "only ones compared mode by mode. All three cover only units computed\n"
      "in this process, not resumed shards.\n",
      Prog, bench::ReportOptions::usage());
  return 2;
}

bool parseList(const char *Arg, std::vector<ElemFunc> &Out) {
  std::string S(Arg);
  size_t At = 0;
  while (At <= S.size()) {
    size_t Comma = S.find(',', At);
    std::string Tok = S.substr(At, Comma == std::string::npos ? std::string::npos
                                                              : Comma - At);
    bool Found = false;
    for (ElemFunc F : AllElemFuncs)
      if (Tok == elemFuncName(F)) {
        Out.push_back(F);
        Found = true;
      }
    if (!Found)
      return false;
    if (Comma == std::string::npos)
      break;
    At = Comma + 1;
  }
  return !Out.empty();
}

bool parseList(const char *Arg, std::vector<EvalScheme> &Out) {
  std::string S(Arg);
  size_t At = 0;
  while (At <= S.size()) {
    size_t Comma = S.find(',', At);
    std::string Tok = S.substr(At, Comma == std::string::npos ? std::string::npos
                                                              : Comma - At);
    bool Found = false;
    for (EvalScheme Sc : AllEvalSchemes)
      if (Tok == evalSchemeName(Sc)) {
        Out.push_back(Sc);
        Found = true;
      }
    if (!Found)
      return false;
    if (Comma == std::string::npos)
      break;
    At = Comma + 1;
  }
  return !Out.empty();
}

/// The sweep's work in this process, from the telemetry counters (the
/// sweep is the tool's only oracle user): the RO_34 results the sweep
/// obtained, one per input its groups enumerate whatever the number of
/// schemes and nested formats, the certified fast oracle's verdicts on
/// them, and the screen misses.
struct ProcessWork {
  uint64_t Queries, Accepted, Boundary, Domain;
  /// Base-combination (unit, input) pairs that missed the round-to-odd
  /// screen and took the five-mode comparison (at FP(32, 8), mismatches).
  uint64_t ScreenMisses;

  static ProcessWork read() {
    return {telemetry::counterValue("verify.oracle.queries"),
            telemetry::counterValue("oracle.fast.accepts"),
            telemetry::counterValue("oracle.fast.fallbacks"),
            telemetry::counterValue("oracle.fast.rejects"),
            telemetry::counterValue("verify.screen_misses")};
  }
};

/// Reads option Argv[I]'s value, a whole decimal number in [Min, Max],
/// into \p Out and steps past it; false (with a message) otherwise.
template <typename T>
bool numArg(int Argc, char **Argv, int &I, uint64_t Min, uint64_t Max,
            T &Out) {
  uint64_t V = 0;
  if (I + 1 >= Argc || !parseCount(Argv[I + 1], Min, Max, V)) {
    std::fprintf(stderr, "%s expects a number in [%llu, %llu]\n", Argv[I],
                 static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max));
    return false;
  }
  Out = static_cast<T>(V);
  ++I;
  return true;
}

/// Float32 units record RO_34 (mode "ro") with FP34 encodings.
void printMismatch(const Mismatch &M) {
  const PathSpec P{static_cast<EvalPath>(M.Path),
                   static_cast<libm::BatchISA>(M.ISA)};
  std::fprintf(stderr,
               "  MISMATCH %s/%s fp%u %s x=0x%08x path=%s lane=%s "
               "got=0x%llx want=0x%llx\n",
               elemFuncName(static_cast<ElemFunc>(M.Func)),
               evalSchemeName(static_cast<EvalScheme>(M.Scheme)),
               static_cast<unsigned>(M.FormatBits),
               roundingModeName(static_cast<RoundingMode>(M.Mode)), M.XBits,
               pathSpecName(P).c_str(),
               feLaneName(static_cast<FeLane>(M.Lane)),
               static_cast<unsigned long long>(M.GotEnc),
               static_cast<unsigned long long>(M.WantEnc));
}

void writeReport(bench::Report &Rep, const SweepConfig &C,
                 const SweepReport &R, const ProcessWork &Work,
                 double WallMs) {
  json::Writer &W = Rep.writer();
  W.key("config");
  W.beginObject();
  W.kv("min_bits", C.MinBits);
  W.kv("max_bits", C.MaxBits);
  W.kv("exhaustive_bits", C.ExhaustiveBits);
  W.kv("stride", static_cast<uint64_t>(C.Stride));
  W.kv("threads", ThreadPool::resolveThreads(C.Threads));
  W.key("paths");
  W.inlineNext();
  W.beginArray();
  for (const PathSpec &P : R.Paths)
    W.value(pathSpecName(P));
  W.endArray();
  W.key("lanes");
  W.inlineNext();
  W.beginArray();
  for (FeLane L : R.Lanes)
    W.value(feLaneName(L));
  W.endArray();
  W.kv("units", static_cast<uint64_t>(R.Units.size()));
  W.endObject();

  W.key("totals");
  W.beginObject();
  W.kv("inputs", R.Inputs);
  W.kv("comparisons", R.Comparisons);
  W.kv("mismatches", R.Mismatches);
  W.kv("oracle_fast", R.OracleFast);
  W.kv("oracle_exact", R.OracleExact);
  W.kv("oracle_queries", Work.Queries);
  W.kv("fast_accepted", Work.Accepted);
  W.kv("fast_boundary", Work.Boundary);
  W.kv("fast_domain", Work.Domain);
  W.kv("screen_misses", Work.ScreenMisses);
  W.kv("units_resumed", static_cast<uint64_t>(R.UnitsResumed));
  W.kvFixed("wall_ms", WallMs, 1);
  double Secs = WallMs / 1000.0;
  W.kvFixed("inputs_per_sec", Secs > 0 ? R.Inputs / Secs : 0.0, 0);
  W.kvFixed("comparisons_per_sec", Secs > 0 ? R.Comparisons / Secs : 0.0, 0);
  W.endObject();

  W.key("units");
  W.beginArray();
  for (const UnitOutcome &O : R.Units) {
    W.inlineNext();
    W.beginObject();
    W.kv("func", elemFuncName(O.U.Func));
    W.kv("scheme", evalSchemeName(O.U.Scheme));
    W.kv("bits", O.U.FormatBits);
    W.kv("stride", static_cast<uint64_t>(O.U.Stride));
    W.kv("inputs", O.R.Inputs);
    W.kv("mismatches", O.R.Mismatches);
    W.kvFixed("ms", O.R.Millis, 1);
    if (O.Resumed)
      W.kv("resumed", true);
    W.endObject();
  }
  W.endArray();
}

} // namespace

int main(int Argc, char **Argv) {
  SweepConfig C;
  ShardOptions Shards;
  Shards.NumShards = 0; // 0 = not sharded until a shard flag says otherwise
  bool OneShard = false;  // --shard K/M: run only shard OnlyShard
  unsigned OnlyShard = 0;
  bool Quiet = false;
  bench::ReportOptions Opts;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (Opts.parse(Argc, Argv, I, "BENCH_verify.json"))
      continue;
    bool NumOk = true;
    if (!std::strcmp(A, "--min-bits"))
      NumOk = numArg(Argc, Argv, I, 10, 32, C.MinBits);
    else if (!std::strcmp(A, "--max-bits"))
      NumOk = numArg(Argc, Argv, I, 10, 32, C.MaxBits);
    else if (!std::strcmp(A, "--exhaustive-bits"))
      NumOk = numArg(Argc, Argv, I, 0, 32, C.ExhaustiveBits);
    else if (!std::strcmp(A, "--stride"))
      NumOk = numArg(Argc, Argv, I, 1, UINT64_MAX, C.Stride);
    else if (!std::strcmp(A, "--threads"))
      NumOk = numArg(Argc, Argv, I, 0, 1024, C.Threads);
    else if (!std::strcmp(A, "--max-records"))
      NumOk = numArg(Argc, Argv, I, 0, UINT32_MAX, C.MaxRecordsPerUnit);
    else if (!std::strcmp(A, "--funcs") && I + 1 < Argc) {
      if (!parseList(Argv[++I], C.Funcs)) {
        std::fprintf(stderr, "unknown function in --funcs %s\n", Argv[I]);
        return 2;
      }
    } else if (!std::strcmp(A, "--schemes") && I + 1 < Argc) {
      if (!parseList(Argv[++I], C.Schemes)) {
        std::fprintf(stderr, "unknown scheme in --schemes %s\n", Argv[I]);
        return 2;
      }
    } else if (!std::strcmp(A, "--all-isas"))
      C.AllISAs = true;
    else if (!std::strcmp(A, "--fe-lanes"))
      C.FeLanes = true;
    else if (!std::strcmp(A, "--shards") && I + 1 < Argc) {
      if (!shard::parseShardFlag(Argv[++I], nullptr, Shards.NumShards)) {
        std::fprintf(stderr, "bad --shards %s (want a positive count)\n",
                     Argv[I]);
        return 2;
      }
    } else if (!std::strcmp(A, "--shard") && I + 1 < Argc) {
      if (!shard::parseShardFlag(Argv[++I], &OnlyShard, Shards.NumShards)) {
        std::fprintf(stderr, "bad --shard %s (want K/M with K < M)\n",
                     Argv[I]);
        return 2;
      }
      OneShard = true;
    } else if (!std::strcmp(A, "--shard-dir") && I + 1 < Argc)
      Shards.Dir = Argv[++I];
    else if (!std::strcmp(A, "--resume"))
      Shards.Resume = true;
    else if (!std::strcmp(A, "--quiet"))
      Quiet = true;
    else
      return usage(Argv[0]);
    if (!NumOk)
      return 2;
  }
  if (C.MinBits > C.MaxBits) {
    std::fprintf(stderr, "format range must satisfy 10 <= min <= max <= 32\n");
    return 2;
  }
  bool Sharded = Shards.NumShards > 0 || !Shards.Dir.empty();
  if (Sharded && Shards.Dir.empty()) {
    std::fprintf(stderr, "sharded runs need --shard-dir\n");
    return 2;
  }
  if (Sharded && Shards.NumShards == 0)
    Shards.NumShards = 1;

  std::vector<Unit> Units = planUnits(C);
  std::vector<PathSpec> Paths = planPaths(C);
  std::vector<FeLane> Lanes = planLanes(C);
  if (!Quiet) {
    std::string PathNames, LaneNames;
    for (const PathSpec &P : Paths)
      PathNames += (PathNames.empty() ? "" : ",") + pathSpecName(P);
    for (FeLane L : Lanes)
      LaneNames += std::string(LaneNames.empty() ? "" : ",") + feLaneName(L);
    std::printf("verify: %zu units, paths [%s], lanes [%s], %u threads\n",
                Units.size(), PathNames.c_str(), LaneNames.c_str(),
                ThreadPool::resolveThreads(C.Threads));
  }

  auto T0 = std::chrono::steady_clock::now();
  SweepReport Report;
  Report.Paths = Paths;
  Report.Lanes = Lanes;
  std::string Err;
  if (!Sharded) {
    Report = runSweep(C, [Quiet](const UnitOutcome &O) {
      if (Quiet)
        return;
      const Unit &U = O.U;
      std::string StrideNote =
          U.Stride == 1 ? "" : " stride " + std::to_string(U.Stride);
      std::printf("  %s/%s fp%u%s: %llu inputs, %llu mismatches (%.1f ms)\n",
                  elemFuncName(U.Func), evalSchemeName(U.Scheme), U.FormatBits,
                  StrideNote.c_str(),
                  static_cast<unsigned long long>(O.R.Inputs),
                  static_cast<unsigned long long>(O.R.Mismatches),
                  O.R.Millis);
    });
  } else if (OneShard) {
    std::vector<UnitOutcome> Out;
    if (!runShard(C, Shards, OnlyShard, Out, &Err)) {
      std::fprintf(stderr, "verify: %s\n", Err.c_str());
      return 2;
    }
    Report.Units = std::move(Out);
    Report.accumulate();
  } else {
    if (!runShardedSweep(C, Shards, Report, &Err)) {
      std::fprintf(stderr, "verify: %s\n", Err.c_str());
      return 2;
    }
  }
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  const ProcessWork Work = ProcessWork::read();

  unsigned Printed = 0;
  for (const UnitOutcome &O : Report.Units)
    for (const Mismatch &M : O.R.Records)
      if (Printed++ < 32)
        printMismatch(M);
  if (Printed > 32)
    std::fprintf(stderr, "  ... %u more recorded mismatches\n", Printed - 32);

  std::string ResumeNote =
      Report.UnitsResumed ? " [" + std::to_string(Report.UnitsResumed) +
                                " units resumed]"
                          : "";
  std::printf("verify: %llu inputs, %llu comparisons, %llu mismatches"
              "%s (%.1f s, %.0f inputs/s); %llu oracle queries, fast "
              "oracle %llu accepted, %llu boundary, %llu domain; %llu "
              "screen misses\n",
              static_cast<unsigned long long>(Report.Inputs),
              static_cast<unsigned long long>(Report.Comparisons),
              static_cast<unsigned long long>(Report.Mismatches),
              ResumeNote.c_str(), WallMs / 1000.0,
              WallMs > 0 ? Report.Inputs / (WallMs / 1000.0) : 0.0,
              static_cast<unsigned long long>(Work.Queries),
              static_cast<unsigned long long>(Work.Accepted),
              static_cast<unsigned long long>(Work.Boundary),
              static_cast<unsigned long long>(Work.Domain),
              static_cast<unsigned long long>(Work.ScreenMisses));

  if (!Opts.JsonPath.empty()) {
    bench::Report Rep(Opts.JsonPath, "verify");
    if (!Rep.ok())
      return 2;
    writeReport(Rep, C, Report, Work, WallMs);
  }
  Opts.finish();
  return Report.Mismatches == 0 ? 0 : 1;
}
