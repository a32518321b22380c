//===- rfpbench/LibmWorkloads.cpp - libm-call and libm-batch --------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The library caller, in its two shapes. Both are one-thread closed loops
// whose inputs are 90% on each function's polynomial domain and 10%
// arbitrary bit patterns, so the special-case paths cost what they cost
// real callers.
//
//   libm-call   rfp::eval in 256-call chunks, rotating every shipped
//               (function, scheme) pair at float32 round-to-nearest -- the
//               paper's setting, and the per-call cost RLIBM-32 frames
//               performance as (FE-mode guard included).
//   libm-batch  rfp::evalBatch on 64 Ki-element arrays (768 KiB in + out,
//               inside a 2 MiB L2), rotating the pairs x seeded FP(10..32)
//               formats x the five modes: kernel, then format rounding.
//
// A distinct operation -- one input chunk or array through one variant --
// repeats many times per run; its fastest repeat is its time (OpMinima).
// Each is checked outside its timed region: the first time in full against
// the library's other path, later by digest. A failed operation is one
// whose outputs differ from that path. One element in 64 of each first
// check is also compared with the certified oracle and reported.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

using namespace rfpbench;

namespace {

//===----------------------------------------------------------------------===//
// libm-call
//===----------------------------------------------------------------------===//

constexpr size_t ChunkCalls = 256;
constexpr size_t CallPool = 16384; // inputs per function

class LibmCall : public Workload {
public:
  explicit LibmCall(const RunContext &Ctx) : Ctx(Ctx) {}

  void setup() override {
    Variants = shippedVariants();
    Pools.assign(6, {});
    for (int F = 0; F < 6; ++F) {
      Rng R(Ctx.Seed, 100 + F);
      for (size_t C = 0; C < CallPool / ChunkCalls; ++C)
        for (float X : mixedInputs(rfp::AllElemFuncs[F], R, ChunkCalls))
          Pools[F].push_back(X);
    }
    // Every (variant, chunk of the pool) once per cycle, in seeded order.
    for (uint32_t V = 0; V < Variants.size(); ++V)
      for (uint32_t C = 0; C < CallPool / ChunkCalls; ++C)
        Sched.push_back({V, C});
    Rng R(Ctx.Seed, 1);
    R.shuffle(Sched);
    // Warm-up: each variant's tables and code once.
    for (uint32_t V = 0; V < Variants.size(); ++V)
      for (size_t I = 0; I < ChunkCalls; ++I)
        Out[I] = rfp::eval(key(V), input(V, 0)[I]);
  }

  void run(Outcome &Res) override {
    SpanLog *Spans = Ctx.Spans;
    const size_t Cycle = Sched.size();
    std::vector<Verdict> Seen(Cycle);
    OpMinima Chunk(Cycle), HChunk(Cycle); // HChunk: traced run only
    Clock::time_point Deadline = after(Clock::now(), Ctx.Seconds);
    for (uint64_t K = 0;; ++K) {
      const size_t Op = K % Cycle;
      const VariantKey Key = key(Sched[Op].Variant);
      const float *In = input(Sched[Op].Variant, Sched[Op].Chunk);
      // Traced run: 1 chunk in 8 gets spans, with that weight.
      SpanLog *Sampled = Spans && K % 8 == 0 ? Spans : nullptr;
      Clock::time_point T0, T1;
      {
        ScopedSpan Sp(Sampled, "libm.eval", K, 8);
        T0 = Clock::now();
        for (size_t I = 0; I < ChunkCalls; ++I)
          Out[I] = rfp::eval(Key, In[I]);
        T1 = Clock::now();
      }
      Chunk.add(Op, nsBetween(T0, T1));
      bool Ok = check(Seen[Op], Key, In, Res);

      // Traced run: the H core alone over the same chunk; its results must
      // be the chunk's H.
      if (Spans) {
        ScopedSpan Sp(Sampled, "libm.evalH", K, 8);
        Clock::time_point H0 = Clock::now();
        for (size_t I = 0; I < ChunkCalls; ++I)
          HOut[I] = rfp::evalH(Key.Func, Key.Scheme, In[I]);
        HChunk.add(Op, nsBetween(H0, Clock::now()));
        for (size_t I = 0; I < ChunkCalls; ++I)
          Ok &= sameBits(HOut[I], Out[I].H);
      }
      ++Res.Attempted;
      Res.Failed += !Ok;
      if (T1 >= Deadline)
        break;
    }

    std::vector<double> OpUs = Chunk.ran();
    for (double &T : OpUs)
      T /= 1e3;
    Res.endToEnd(Chunk.perItem(ChunkCalls), OpUs);
    Res.param("chunk_calls", static_cast<double>(ChunkCalls));
    Res.param("pool_per_function", static_cast<double>(CallPool));
    Res.param("distinct_ops", static_cast<double>(Cycle));
    Res.param("format", "fp32");
    Res.param("mode", "rn");
    Res.param("variants", static_cast<double>(Variants.size()));
    Res.param("threads", 1.0);
    if (Spans)
      layerMetrics(Res, Chunk.perItem(ChunkCalls), HChunk);
  }

private:
  struct Slot {
    uint32_t Variant;
    uint32_t Chunk;
  };

  VariantKey key(uint32_t V) const {
    return VariantKey{Variants[V].first, Variants[V].second,
                      FPFormat::float32(), RoundingMode::NearestEven};
  }
  const float *input(uint32_t V, uint32_t Chunk) const {
    return Pools[static_cast<int>(Variants[V].first)].data() +
           Chunk * ChunkCalls;
  }

  /// Checks the chunk in Out[]: the first time against rfp::evalBatch (H
  /// bits and encodings), later by digest of the H bits and encodings.
  bool check(Verdict &V, const VariantKey &Key, const float *In,
             Outcome &Res) {
    uint64_t Words[2 * ChunkCalls];
    for (size_t I = 0; I < ChunkCalls; ++I) {
      std::memcpy(&Words[2 * I], &Out[I].H, sizeof(double));
      Words[2 * I + 1] = Out[I].Enc;
    }
    uint64_t D = digest(Words, 2 * ChunkCalls);
    if (V.S != Verdict::Unseen)
      return V.S == Verdict::Good && V.Digest == D;
    uint64_t Enc[ChunkCalls];
    double H[ChunkCalls];
    rfp::evalBatch(Key, In, Enc, ChunkCalls, H);
    bool Ok = true;
    for (size_t I = 0; I < ChunkCalls; ++I) {
      Ok &= sameBits(H[I], Out[I].H) && Enc[I] == Out[I].Enc;
      if (I % 64 == 0)
        Res.oracleCheck(Key, In[I], Out[I].Enc);
    }
    V.S = Ok ? Verdict::Good : Verdict::Bad;
    V.Digest = D;
    return Ok;
  }

  void layerMetrics(Outcome &Res, double EvalNs, const OpMinima &HChunk) {
    double EvalHNs = HChunk.perItem(ChunkCalls);
    // Horner over Estrin+FMA on the same chunks, per function, geometric
    // mean: the paper's 24% is this ratio's excess over 1.
    double LogSum = 0.0;
    int Funcs = 0;
    for (ElemFunc F : rfp::AllElemFuncs) {
      double Horner = 0.0, EstrinFMA = 0.0;
      for (size_t Op = 0; Op < Sched.size(); ++Op) {
        auto [VF, VS] = Variants[Sched[Op].Variant];
        if (VF != F || !std::isfinite(HChunk.of(Op)))
          continue;
        if (VS == EvalScheme::Horner)
          Horner += HChunk.of(Op);
        if (VS == EvalScheme::EstrinFMA)
          EstrinFMA += HChunk.of(Op);
      }
      if (Horner > 0.0 && EstrinFMA > 0.0) {
        LogSum += std::log(Horner / EstrinFMA);
        ++Funcs;
      }
    }
    Res.Layers["libm.eval_ns"] = {EvalNs, "ns"};
    Res.Layers["libm.evalH_ns"] = {EvalHNs, "ns"};
    // The part of a call beyond the H core: format rounding and key
    // handling.
    Res.Layers["libm.eval_other_ns"] = {EvalNs - EvalHNs, "ns"};
    Res.Layers["poly.horner_vs_estrin_fma"] = {
        Funcs ? std::exp(LogSum / Funcs) : 0.0, "x"};
  }

  RunContext Ctx;
  std::vector<std::pair<ElemFunc, EvalScheme>> Variants;
  std::vector<std::vector<float>> Pools;
  std::vector<Slot> Sched;
  rfp::EvalResult Out[ChunkCalls];
  double HOut[ChunkCalls];
};

//===----------------------------------------------------------------------===//
// libm-batch
//===----------------------------------------------------------------------===//

constexpr size_t BatchElems = 65536;
constexpr int ArraysPerFunc = 2;

class LibmBatch : public Workload {
public:
  explicit LibmBatch(const RunContext &Ctx) : Ctx(Ctx) {}

  void setup() override {
    for (int F = 0; F < 6; ++F)
      for (int A = 0; A < ArraysPerFunc; ++A) {
        Rng R(Ctx.Seed, 200 + F * ArraysPerFunc + A);
        Arrays.push_back(mixedInputs(rfp::AllElemFuncs[F], R, BatchElems));
      }
    // Every (variant, mode) once per cycle, each with a seeded format and
    // array, in seeded order; every format 10..32 appears five times.
    Rng R(Ctx.Seed, 2);
    std::vector<unsigned> Bits;
    for (int Rep = 0; Rep < 5; ++Rep)
      for (unsigned B = 10; B <= 32; ++B)
        Bits.push_back(B);
    R.shuffle(Bits);
    for (auto [F, S] : shippedVariants())
      for (RoundingMode M : rfp::StandardRoundingModes) {
        int A = static_cast<int>(F) * ArraysPerFunc +
                static_cast<int>(R.below(ArraysPerFunc));
        FPFormat Fmt = FPFormat::withBits(Bits[Sched.size() % Bits.size()]);
        Sched.push_back({VariantKey{F, S, Fmt, M}, A});
      }
    R.shuffle(Sched);
    Enc.resize(BatchElems);
    H.resize(BatchElems);
    // Warm-up: each (function, scheme) kernel once.
    for (auto [F, S] : shippedVariants())
      rfp::evalBatch(VariantKey{F, S, FPFormat::float32(),
                                RoundingMode::NearestEven},
                     Arrays[static_cast<int>(F) * ArraysPerFunc].data(),
                     Enc.data(), BatchElems);
  }

  void run(Outcome &Res) override {
    SpanLog *Spans = Ctx.Spans;
    std::vector<std::vector<float>> Specials;
    if (Spans)
      for (int F = 0; F < 6; ++F) {
        Rng R(Ctx.Seed, 300 + F);
        Specials.emplace_back(BatchElems);
        for (float &X : Specials.back())
          X = floatFromBits(static_cast<uint32_t>(R.next()));
      }

    const size_t Cycle = Sched.size();
    std::vector<Verdict> Seen(Cycle);
    OpMinima Call(Cycle), HTier(Cycle), RoundTier(Cycle), Special(Cycle);
    std::vector<uint64_t> Enc2(BatchElems);
    Clock::time_point Deadline = after(Clock::now(), Ctx.Seconds);
    for (uint64_t K = 0;; ++K) {
      const size_t Op = K % Cycle;
      const Slot &S = Sched[Op];
      const float *In = Arrays[S.Array].data();
      Clock::time_point T0, T1;
      {
        ScopedSpan Sp(Spans, "libm.evalBatch", K);
        T0 = Clock::now();
        rfp::evalBatch(S.Key, In, Enc.data(), BatchElems);
        T1 = Clock::now();
      }
      Call.add(Op, nsBetween(T0, T1));
      bool Ok = check(Seen[Op], S.Key, In, Res);

      // Traced run: the call's two tiers timed apart, so the remainder
      // (staging, the guard, the call itself) is explicit -- their
      // encodings must be the call's -- and the same kernel on all-special
      // lanes, the scalar fallback's cost.
      if (Spans) {
        Clock::time_point A0, A1, B0, B1, C0, C1;
        {
          ScopedSpan Sp(Spans, "libm.evalBatchH", K);
          A0 = Clock::now();
          rfp::evalBatchH(S.Key.Func, S.Key.Scheme, In, H.data(), BatchElems);
          A1 = Clock::now();
        }
        {
          ScopedSpan Sp(Spans, "fp.roundDouble", K);
          B0 = Clock::now();
          for (size_t I = 0; I < BatchElems; ++I)
            Enc2[I] = S.Key.Format.roundDouble(H[I], S.Key.Mode);
          B1 = Clock::now();
        }
        {
          ScopedSpan Sp(Spans, "libm.evalBatchH.special", K);
          C0 = Clock::now();
          rfp::evalBatchH(S.Key.Func, S.Key.Scheme,
                          Specials[static_cast<int>(S.Key.Func)].data(),
                          H.data(), BatchElems);
          C1 = Clock::now();
        }
        HTier.add(Op, nsBetween(A0, A1));
        RoundTier.add(Op, nsBetween(B0, B1));
        Special.add(Op, nsBetween(C0, C1));
        Ok &= Enc2 == Enc;
      }
      ++Res.Attempted;
      Res.Failed += !Ok;
      if (T1 >= Deadline)
        break;
    }

    std::vector<double> OpUs = Call.ran();
    for (double &T : OpUs)
      T /= 1e3;
    const double PerElem = Call.perItem(BatchElems);
    Res.endToEnd(PerElem, OpUs);
    Res.param("array_elems", static_cast<double>(BatchElems));
    Res.param("arrays_per_function", static_cast<double>(ArraysPerFunc));
    Res.param("distinct_ops", static_cast<double>(Cycle));
    Res.param("formats", "FP(10..32, 8), each five times, seeded");
    Res.param("threads", 1.0);
    if (Spans) {
      double HElem = HTier.perItem(BatchElems);
      double RoundElem = RoundTier.perItem(BatchElems);
      Res.Layers["libm.batch_ns"] = {PerElem, "ns"};
      Res.Layers["libm.batchH_ns"] = {HElem, "ns"};
      Res.Layers["fp.round_ns"] = {RoundElem, "ns"};
      Res.Layers["libm.batch_other_ns"] = {PerElem - HElem - RoundElem, "ns"};
      Res.Layers["libm.batchH_special_ns"] = {Special.perItem(BatchElems),
                                              "ns"};
    }
  }

private:
  struct Slot {
    VariantKey Key;
    int Array;
  };

  /// Checks Enc[]: the first time, H from evalBatch against rfp::evalH on
  /// every element and Enc against roundDouble of that H; later by digest.
  bool check(Verdict &V, const VariantKey &Key, const float *In,
             Outcome &Res) {
    uint64_t D = digest(Enc.data(), BatchElems);
    if (V.S != Verdict::Unseen)
      return V.S == Verdict::Good && V.Digest == D;
    std::vector<uint64_t> Enc2(BatchElems);
    rfp::evalBatch(Key, In, Enc2.data(), BatchElems, H.data());
    bool Ok = Enc2 == Enc;
    for (size_t I = 0; I < BatchElems; ++I) {
      Ok &= sameBits(H[I], rfp::evalH(Key.Func, Key.Scheme, In[I])) &&
            Enc[I] == Key.Format.roundDouble(H[I], Key.Mode);
      if (I % 64 == 0)
        Res.oracleCheck(Key, In[I], Enc[I]);
    }
    V.S = Ok ? Verdict::Good : Verdict::Bad;
    V.Digest = D;
    return Ok;
  }

  RunContext Ctx;
  std::vector<std::vector<float>> Arrays;
  std::vector<Slot> Sched;
  std::vector<uint64_t> Enc;
  std::vector<double> H;
};

} // namespace

std::unique_ptr<Workload> rfpbench::makeLibmCall(const RunContext &Ctx) {
  return std::make_unique<LibmCall>(Ctx);
}
std::unique_ptr<Workload> rfpbench::makeLibmBatch(const RunContext &Ctx) {
  return std::make_unique<LibmBatch>(Ctx);
}
