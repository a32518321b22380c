//===- rfpbench/rfpbench.cpp - One command, every workload ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
//   rfpbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-file PATH] [--json PATH]
//   rfpbench --smoke [--seed N]
//
// Runs one workload in this process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}. Untraced,
// the metrics are the end-to-end ones:
//
//   item_ns      time per item, the workload's throughput
//   op_p50_us    median latency of the workload's operation
//   op_p99_us    99th-percentile latency of the operation
//   setup_s      median of 21 full set-ups, each in a fresh child process:
//                process start, the library's one-time initialisation,
//                input generation and warm-up, up to the first timed op
//   peak_rss_mb  peak resident set of this process
//
// Traced (--trace 1), the metrics are the per-layer ones. Each workload
// measures the layers it drives; every other layer is measured by a short
// probe (the other workloads at --smoke size), so every traced run reports
// every layer; the metadata line names those smoke-size values
// (smoke_size_metrics), which are not comparable with the full-size ones.
// Spans are written as Chrome trace JSON to --trace-file.
//
// Exit status: 0 when the run completed (the JSON says whether every output
// was correct), 1 on a failed --smoke check, 2 on a usage or run error.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "verify/Verify.h"
#include "oracle/OracleFast.h"

#include <cstdio>
#include <cstdlib>
#include <spawn.h>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef RFPBENCH_BUILD_TYPE
#define RFPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RFPBENCH_SOURCE_DIR
#define RFPBENCH_SOURCE_DIR "unknown"
#endif
#if defined(__clang__)
#define RFPBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define RFPBENCH_COMPILER "gcc " __VERSION__
#else
#define RFPBENCH_COMPILER "unknown"
#endif

extern char **environ;

using namespace rfpbench;

namespace {

struct WorkloadDef {
  const char *Name;
  std::unique_ptr<Workload> (*Make)(const RunContext &);
};

const WorkloadDef Workloads[] = {
    {"libm-call", makeLibmCall},   {"libm-batch", makeLibmBatch},
    {"serve-mix", makeServeMix},   {"verify-16", makeVerify16},
    {"polygen-6", makePolygen6},
};

const WorkloadDef *findWorkload(const std::string &Name) {
  for (const WorkloadDef &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

constexpr int SetupRepeats = 21;
constexpr double SmokeSeconds = 0.2;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceFile;
  std::string JsonFile;
  bool Smoke = false;
  bool SetupOnly = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "rfpbench: %s\nusage: rfpbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-file PATH] "
               "[--json PATH]\n       rfpbench --smoke [--seed N]\n"
               "workloads:",
               Msg);
  for (const WorkloadDef &W : Workloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (A == "--trace")
      O.Trace = Value() != "0";
    else if (A == "--trace-file")
      O.TraceFile = Value();
    else if (A == "--json")
      O.JsonFile = Value();
    else if (A == "--smoke")
      O.Smoke = true;
    else if (A == "--setup-only")
      O.SetupOnly = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (!O.Smoke && !findWorkload(O.Workload))
    usage(O.Workload.empty() ? "--workload is required"
                             : ("unknown workload " + O.Workload).c_str());
  if (!(O.Seconds > 0.0 && O.Seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return O;
}

RunContext contextFor(const Options &O) {
  RunContext Ctx;
  Ctx.Seed = O.Seed;
  Ctx.Seconds = O.Seconds;
  Ctx.Threads = rfp::ThreadPool::resolveThreads(0);
  return Ctx;
}

//===----------------------------------------------------------------------===//
// Set-up time.
//===----------------------------------------------------------------------===//

/// One full set-up: spawns `rfpbench --setup-only` with this run's workload
/// and seed and times it from the spawn to its "ready" line.
double timeSetupInChild(const Options &O) {
  std::vector<std::string> Args = {"rfpbench",
                                   "--setup-only",
                                   "--workload",
                                   O.Workload,
                                   "--seed",
                                   std::to_string(O.Seed),
                                   "--seconds",
                                   std::to_string(O.Seconds)};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  int Pipe[2];
  if (pipe(Pipe) != 0)
    throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  pid_t Pid = 0;
  Clock::time_point T0 = Clock::now();
  int Err = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr,
                        Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  if (Err != 0) {
    close(Pipe[0]);
    throw std::runtime_error("cannot spawn the set-up child");
  }
  std::string Line;
  char C;
  while (read(Pipe[0], &C, 1) == 1 && C != '\n')
    Line += C;
  Clock::time_point T1 = Clock::now();
  close(Pipe[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (Line != "ready" || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    throw std::runtime_error("set-up child failed");
  return secondsBetween(T0, T1);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Probes for the traced run.
//===----------------------------------------------------------------------===//

/// Per-call cost of the two oracle paths on a seeded sample of sweep inputs
/// (FP(10..16, 8) encodings as floats): the certified fast path, and the
/// exact path on a cleared cache.
void probeOracle(const RunContext &Ctx, Metrics &L) {
  Rng R(Ctx.Seed, 6);
  std::vector<std::pair<ElemFunc, uint32_t>> Sample;
  for (int I = 0; I < 4096; ++I) {
    FPFormat Fmt = FPFormat::withBits(10 + static_cast<unsigned>(R.below(7)));
    float X = static_cast<float>(Fmt.decode(R.below(Fmt.encodingCount())));
    Sample.push_back({rfp::AllElemFuncs[R.below(6)], bitsOfFloat(X)});
  }
  uint64_t Enc = 0;
  Clock::time_point T0 = Clock::now();
  for (auto [F, Bits] : Sample)
    rfp::oracle_fast::tryEvalToOdd34(F, Bits, Enc);
  L["oracle.fast_us"] = {nsBetween(T0, Clock::now()) / 1e3 / Sample.size(),
                         "us"};
  const size_t Exact = 256;
  rfp::oracle_cache::clear();
  T0 = Clock::now();
  for (size_t I = 0; I < Exact; ++I)
    rfp::oracle_cache::evalToOdd34(Sample[I].first, Sample[I].second, false);
  L["oracle.exact_us"] = {nsBetween(T0, Clock::now()) / 1e3 / Exact, "us"};
  rfp::oracle_cache::clear();
}

/// Fork-join cost of the thread pool: parallelFor over one empty chunk per
/// thread.
void probeSupport(const RunContext &Ctx, Metrics &L) {
  std::vector<double> Us;
  for (int I = 0; I < 400; ++I) {
    Clock::time_point T0 = Clock::now();
    rfp::parallelFor(Ctx.Threads, [](size_t, size_t) {}, Ctx.Threads, 1);
    Us.push_back(nsBetween(T0, Clock::now()) / 1e3);
  }
  L["support.parallel_for_us"] = {median(Us), "us"};
}

/// Cost of one open+close span pair, for the tracing-overhead estimate.
double spanCostNs() {
  SpanLog Scratch;
  const int N = 100000;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    ScopedSpan S(&Scratch, "bench.calibrate", I);
  return nsBetween(T0, Clock::now()) / N;
}

//===----------------------------------------------------------------------===//
// Metadata.
//===----------------------------------------------------------------------===//

using Meta = std::vector<std::pair<std::string, std::string>>;

/// Batch ISAs this build and CPU can run: those whose call counter moves
/// when the ISA is pinned ("unknown" if the counters are not there).
std::string usableBatchISAs() {
  const std::pair<rfp::libm::BatchISA, const char *> ISAs[] = {
      {rfp::libm::BatchISA::Scalar, "scalar"},
      {rfp::libm::BatchISA::AVX2, "avx2"},
      {rfp::libm::BatchISA::AVX512, "avx512"},
      {rfp::libm::BatchISA::NEON, "neon"}};
  std::string Out;
  for (auto [ISA, Name] : ISAs) {
    std::string Counter = std::string("libm.batch.calls.") + Name;
    uint64_t Before = rfp::telemetry::counterValue(Counter.c_str());
    float X = 1.5f;
    double H;
    rfp::evalBatchH(ISA, ElemFunc::Exp, EvalScheme::EstrinFMA, &X, &H, 1);
    if (rfp::telemetry::counterValue(Counter.c_str()) == Before)
      continue;
    if (!Out.empty())
      Out += ',';
    Out += Name;
  }
  return Out.empty() ? "unknown" : Out;
}

/// Joins \p Names with commas, "none" when empty.
std::string joined(const std::vector<std::string> &Names) {
  std::string Out;
  for (const std::string &N : Names)
    Out += (Out.empty() ? "" : ",") + N;
  return Out.empty() ? "none" : Out;
}

Meta metadata(const Options &O, const RunContext &Ctx, const Outcome &Res,
              const std::vector<std::string> &FromSmoke) {
  rfp::verify::SweepConfig C;
  std::string Active =
      rfp::verify::pathSpecName(rfp::verify::planPaths(C).back());
  if (Active.rfind("batch-", 0) == 0)
    Active = Active.substr(6);
  char Host[256] = "";
  gethostname(Host, sizeof(Host) - 1);
  char Exe[4096] = "";
  ssize_t ExeLen = readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  Exe[ExeLen > 0 ? ExeLen : 0] = '\0';
  Meta M = {{"workload", O.Workload},
            {"seed", std::to_string(O.Seed)},
            {"seconds", std::to_string(O.Seconds)},
            {"trace", O.Trace ? "1" : "0"},
            {"nproc", std::to_string(Ctx.Threads)},
            {"hardware_concurrency",
             std::to_string(std::thread::hardware_concurrency())},
            {"active_batch_isa", Active},
            {"usable_batch_isas", usableBatchISAs()},
            {"build_type", RFPBENCH_BUILD_TYPE},
            {"compiler", RFPBENCH_COMPILER},
            {"host", Host},
            {"source_dir", RFPBENCH_SOURCE_DIR},
            {"binary", Exe},
            {"smoke_size_metrics", joined(FromSmoke)},
            {"oracle_checks", std::to_string(Res.OracleChecks)},
            {"oracle_disagreements",
             std::to_string(Res.OracleDisagreements.size())}};
  for (const auto &P : Res.Params)
    M.emplace_back("param." + P.first, P.second);
  return M;
}

//===----------------------------------------------------------------------===//
// Output.
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string metaJson(const Meta &M) {
  std::string Out = "{";
  for (size_t I = 0; I < M.size(); ++I)
    Out += (I ? ", " : "") + jsonString(M[I].first) + ": " +
           jsonString(M[I].second);
  return Out + "}";
}

std::string metricsJson(const Metrics &Ms) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[Name, M] : Ms) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += (First ? "" : ", ") + jsonString(Name) + ": {\"value\": " + Buf +
           ", \"unit\": " + jsonString(M.Unit) + "}";
    First = false;
  }
  return Out + "}";
}

std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const Metrics &Ms) {
  return "{\"correct\": " + std::string(Correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(Attempted) +
         ", \"failed\": " + std::to_string(Failed) +
         ", \"metrics\": " + metricsJson(Ms) + "}";
}

void printMetrics(const char *Title, const Metrics &Ms) {
  std::printf("%s\n", Title);
  for (const auto &[Name, M] : Ms)
    std::printf("  %-28s %16.6g %s\n", Name.c_str(), M.Value, M.Unit);
}

/// A metric is usable when it is finite; the end-to-end ones must also be
/// positive.
bool allFinite(const Metrics &Ms, bool Positive) {
  for (const auto &[Name, M] : Ms)
    if (!std::isfinite(M.Value) || (Positive && !(M.Value > 0.0))) {
      std::fprintf(stderr, "rfpbench: metric %s = %g is not usable\n",
                   Name.c_str(), M.Value);
      return false;
    }
  return true;
}

//===----------------------------------------------------------------------===//
// Runs.
//===----------------------------------------------------------------------===//

/// The traced run's per-layer metrics for layers \p Own does not drive:
/// every other workload at smoke size, then the oracle and thread-pool
/// probes. Returns the names of the metrics that came from a smoke-size
/// run: they mean something different from the same names measured by
/// their own workload at full size, and the metadata says so.
std::vector<std::string> probeOtherLayers(const WorkloadDef &Own,
                                          const RunContext &Ctx,
                                          Outcome &Res) {
  std::vector<std::string> FromSmoke;
  for (const WorkloadDef &W : Workloads) {
    if (&W == &Own)
      continue;
    RunContext P = Ctx;
    P.Smoke = true;
    P.Seconds = SmokeSeconds;
    SpanLog Scratch;
    P.Spans = &Scratch;
    std::unique_ptr<Workload> Probe = W.Make(P);
    Probe->setup();
    Outcome PO;
    Probe->run(PO);
    Res.Attempted += PO.Attempted;
    Res.Failed += PO.Failed;
    for (const auto &[Name, M] : PO.Layers)
      if (Res.Layers.emplace(Name, M).second)
        FromSmoke.push_back(Name);
  }
  probeOracle(Ctx, Res.Layers);
  probeSupport(Ctx, Res.Layers);
  return FromSmoke;
}

void printSelfTime(const SpanLog &Spans, double WallS) {
  std::printf("self time per layer (traced spans, weighted by sampling; "
              "run wall %.3f s)\n",
              WallS);
  for (const auto &[Layer, T] : Spans.selfTimeByLayer())
    std::printf("  %-10s self %10.4f s  total %10.4f s  spans %llu\n",
                Layer.c_str(), T.SelfS, T.TotalS,
                static_cast<unsigned long long>(T.Spans));
}

/// The libm workloads' oracle sample: a finding about the tables, printed
/// with the inputs so it can be reproduced.
void printOracleSample(const Outcome &Res) {
  if (!Res.OracleChecks)
    return;
  std::printf("oracle sample: %llu elements checked, %zu disagree with the "
              "oracle\n",
              static_cast<unsigned long long>(Res.OracleChecks),
              Res.OracleDisagreements.size());
  for (const std::string &D : Res.OracleDisagreements)
    std::printf("  %s\n", D.c_str());
}

int runOne(const Options &O) {
  const WorkloadDef &Def = *findWorkload(O.Workload);
  RunContext Ctx = contextFor(O);
  SpanLog Spans;
  if (O.Trace)
    Ctx.Spans = &Spans;

  std::vector<double> SetupS;
  if (!O.Trace)
    for (int I = 0; I < SetupRepeats; ++I)
      SetupS.push_back(timeSetupInChild(O));

  std::unique_ptr<Workload> W = Def.Make(Ctx);
  Clock::time_point T0 = Clock::now();
  W->setup();
  Clock::time_point T1 = Clock::now();
  Outcome Res;
  W->run(Res);
  double WallS = secondsBetween(T1, Clock::now());

  Metrics Printed;
  std::vector<std::string> FromSmoke;
  if (O.Trace) {
    printMetrics("end-to-end, traced (compare an untraced run for the "
                 "tracing overhead):",
                 Res.EndToEnd);
    printSelfTime(Spans, WallS);
    Res.Layers["setup.inproc_s"] = {secondsBetween(T0, T1), "s"};
    Res.Layers["trace.spans"] = {static_cast<double>(Spans.size()), "count"};
    Res.Layers["trace.overhead_pct"] = {
        100.0 * Spans.size() * spanCostNs() / (WallS * 1e9), "%"};
    if (!O.TraceFile.empty() &&
        !Spans.writeChromeTrace(O.TraceFile, O.Workload))
      std::fprintf(stderr, "rfpbench: cannot write %s\n", O.TraceFile.c_str());
    FromSmoke = probeOtherLayers(Def, Ctx, Res);
    Printed = Res.Layers;
  } else {
    Res.EndToEnd["setup_s"] = {median(SetupS), "s"};
    Res.EndToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    Printed = Res.EndToEnd;
  }
  printMetrics(O.Trace ? "per-layer:" : "end-to-end:", Printed);
  printOracleSample(Res);

  bool Correct = Res.Failed == 0 && Res.Attempted > 0 &&
                 allFinite(Printed, /*Positive=*/!O.Trace);
  Meta M = metadata(O, Ctx, Res, FromSmoke);
  std::string Result = resultJson(Correct, Res.Attempted, Res.Failed, Printed);
  if (!O.JsonFile.empty()) {
    FILE *F = std::fopen(O.JsonFile.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "rfpbench: cannot write %s\n", O.JsonFile.c_str());
      return 2;
    }
    std::fprintf(F, "{\"meta\": %s,\n \"result\": %s,\n \"end_to_end\": %s}\n",
                 metaJson(M).c_str(), Result.c_str(),
                 metricsJson(Res.EndToEnd).c_str());
    std::fclose(F);
  }
  std::printf("meta %s\n%s\n", metaJson(M).c_str(), Result.c_str());
  return 0;
}

/// Every workload at about 1/50 size, traced, with the correctness checks
/// on: the check that the benchmark itself still works.
int runSmoke(const Options &O) {
  RunContext Ctx = contextFor(O);
  Ctx.Smoke = true;
  Ctx.Seconds = SmokeSeconds;
  uint64_t Attempted = 0, Failed = 0;
  bool Ok = true;
  for (const WorkloadDef &W : Workloads) {
    SpanLog Spans;
    RunContext C = Ctx;
    C.Spans = &Spans;
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<Workload> Wl = W.Make(C);
    Wl->setup();
    Outcome Res;
    Wl->run(Res);
    bool Good = Res.Failed == 0 && Res.Attempted > 0 &&
                allFinite(Res.EndToEnd, true) && allFinite(Res.Layers, false) &&
                !Res.Layers.empty() && Spans.size() > 0;
    std::printf("smoke %-10s %s  attempted %llu failed %llu  %.2f s\n", W.Name,
                Good ? "ok  " : "FAIL",
                static_cast<unsigned long long>(Res.Attempted),
                static_cast<unsigned long long>(Res.Failed),
                secondsBetween(T0, Clock::now()));
    Attempted += Res.Attempted;
    Failed += Res.Failed;
    Ok &= Good;
  }
  std::printf("%s\n", resultJson(Ok, Attempted, Failed, {}).c_str());
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  try {
    if (O.SetupOnly) {
      std::unique_ptr<Workload> W =
          findWorkload(O.Workload)->Make(contextFor(O));
      W->setup();
      std::printf("ready\n");
      std::fflush(stdout);
      return 0;
    }
    return O.Smoke ? runSmoke(O) : runOne(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "rfpbench: %s\n", E.what());
    return 2;
  }
}
