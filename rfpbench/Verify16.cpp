//===- rfpbench/Verify16.cpp - verify-16 ----------------------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The correctness proof: verify::runSweep over every encoding of FP(10..16,
// 8), every shipped (function, scheme) pair, the scalar cores and the
// active ISA's batch kernels, all five modes, on nproc threads -- 2,991,104
// inputs and 29,911,040 comparisons per pass. The oracle cache is cleared
// before each pass, so every pass pays the oracle cold: at these widths
// most inputs leave the certified fast path for exact Ziv, and the format
// rounding runs five times per input. The sweep is exhaustive, so the seed
// only permutes the order of the functions.
//
// Each unit -- one (function, scheme, format) sweep, identical in every
// pass -- counts at its fastest pass (OpMinima). The operation whose
// latency is reported is the whole cold pass, what a user of the proof
// waits for, timed as the sum of its units' fastest sweeps: one value per
// run, so its p50 and p99 coincide. Single units, a few milliseconds each
// for the narrow formats, are too short to time steadily on shared cores,
// and the slowest raw pass of a run tracks the host's load more than the
// code.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "verify/Verify.h"

using namespace rfpbench;
using namespace rfp::verify;

namespace {

class Verify16 : public Workload {
public:
  explicit Verify16(const RunContext &Ctx) : Ctx(Ctx) {}

  void setup() override {
    Config.Funcs.assign(std::begin(rfp::AllElemFuncs),
                        std::end(rfp::AllElemFuncs));
    Rng R(Ctx.Seed, 4);
    R.shuffle(Config.Funcs);
    Config.MinBits = 10;
    Config.MaxBits = Ctx.Smoke ? 12 : 16;
    Config.Threads = Ctx.Threads;
    for (const Unit &U : planUnits(Config))
      ExpectedInputs += U.NumEncodings;
    // Warm-up: one narrow sweep through every variant, the oracle and the
    // thread pool.
    SweepConfig Warm = Config;
    Warm.MaxBits = 10;
    runSweep(Warm);
  }

  void run(Outcome &Res) override {
    OpMinima UnitNs(planUnits(Config).size());
    std::vector<double> PassS;
    SweepReport Cold;
    Clock::time_point Start = Clock::now();
    for (uint64_t Pass = 0; anotherPass(Start, Ctx.Seconds, PassS); ++Pass) {
      rfp::oracle_cache::clear();
      Clock::time_point T0 = Clock::now();
      {
        ScopedSpan Sp(Ctx.Spans, "verify.runSweep", Pass);
        Cold = runSweep(Config);
      }
      PassS.push_back(secondsBetween(T0, Clock::now()));
      for (size_t U = 0; U < Cold.Units.size(); ++U)
        UnitNs.add(U, Cold.Units[U].R.Millis * 1e6);
      Res.Attempted += Cold.Comparisons;
      Res.Failed += Cold.Mismatches + (Cold.Inputs != ExpectedInputs);
    }

    Res.endToEnd(UnitNs.sum() / ExpectedInputs, {UnitNs.sum() / 1e3});
    Res.param("min_bits", static_cast<double>(Config.MinBits));
    Res.param("max_bits", static_cast<double>(Config.MaxBits));
    Res.param("units", static_cast<double>(UnitNs.ran().size()));
    Res.param("inputs_per_pass", static_cast<double>(ExpectedInputs));
    Res.param("comparisons_per_pass", static_cast<double>(Cold.Comparisons));
    Res.param("passes", static_cast<double>(PassS.size()));
    Res.param("pass_s", PassS);
    Res.param("threads", static_cast<double>(Ctx.Threads));
    if (Ctx.Spans)
      layerMetrics(Res, UnitNs.sum() / 1e9, Cold, UnitNs.ran());
  }

private:
  void layerMetrics(Outcome &Res, double ColdS, const SweepReport &Cold,
                    const std::vector<double> &UnitNs) {
    // A second pass over the memoized oracle: the difference is what the
    // oracle costs a cold pass.
    SweepReport Warm;
    {
      ScopedSpan Sp(Ctx.Spans, "verify.runSweep.warm");
      Warm = runSweep(Config);
    }
    Res.Attempted += Warm.Comparisons;
    Res.Failed += Warm.Mismatches;

    // Thread scaling, cold, on the widest format of the first two
    // functions: a unit's blocks are what run in parallel, and the narrow
    // formats have one block each. Sixteen blocks per unit is the default
    // at FP16 and gives the smoke size's FP12 the same parallelism.
    SweepConfig Slice = Config;
    Slice.Funcs.resize(2);
    Slice.MinBits = Config.MaxBits;
    Slice.BlockElems = (size_t{1} << Config.MaxBits) / 16;
    double SliceS[2];
    for (int I = 0; I < 2; ++I) {
      Slice.Threads = I == 0 ? 1 : Ctx.Threads;
      rfp::oracle_cache::clear();
      Clock::time_point S0 = Clock::now();
      SweepReport R;
      {
        ScopedSpan Sp(Ctx.Spans, "verify.runSweep.slice", I);
        R = runSweep(Slice);
      }
      SliceS[I] = secondsBetween(S0, Clock::now());
      Res.Attempted += R.Comparisons;
      Res.Failed += R.Mismatches;
    }

    double WarmS = Warm.Millis / 1e3;
    double Oracle = static_cast<double>(Cold.OracleFast + Cold.OracleExact);
    Res.Layers["verify.cold_s"] = {ColdS, "s"};
    Res.Layers["verify.warm_s"] = {WarmS, "s"};
    Res.Layers["verify.oracle_s"] = {ColdS - WarmS, "s"};
    Res.Layers["oracle.fast_frac"] = {Oracle ? Cold.OracleFast / Oracle : 0.0,
                                      "frac"};
    Res.Layers["verify.unit_ms_p50"] = {percentile(UnitNs, 50.0) / 1e6, "ms"};
    Res.Layers["verify.unit_ms_max"] = {percentile(UnitNs, 100.0) / 1e6, "ms"};
    Res.Layers["verify.scaling_eff"] = {SliceS[0] / (Ctx.Threads * SliceS[1]),
                                        "frac"};
  }

  RunContext Ctx;
  SweepConfig Config;
  uint64_t ExpectedInputs = 0;
};

} // namespace

std::unique_ptr<Workload> rfpbench::makeVerify16(const RunContext &Ctx) {
  return std::make_unique<Verify16>(Ctx);
}
