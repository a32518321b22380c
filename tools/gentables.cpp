//===- tools/gentables.cpp - Regenerate constant tables -------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
// Writes two generated files, relative to the working directory (run from
// the repository root):
//
//   src/libm/generated/Tables.inc    the libm range-reduction tables; every
//                                    entry is the *correctly rounded*
//                                    double of the exact mathematical
//                                    value, computed with the MP oracle
//                                    substrate (the paper uses MPFR for
//                                    the same purpose)
//   src/oracle/OracleFastTables.inc  the certified fast oracle's
//                                    double-double tables, from
//                                    oracle_fast::computeTables()
//
//===----------------------------------------------------------------------===//

#include "mp/MPTranscendental.h"
#include "oracle/OracleFastTables.h"

#include <cstdio>
#include <initializer_list>

using namespace rfp;

/// One member of the fast oracle's tables: an entry (Count 1) or an array.
struct DDField {
  const char *Name;
  const oracle_fast::DD *At;
  int Count;
};

static void emitDDStruct(FILE *F, const char *Name,
                         std::initializer_list<DDField> Fields) {
  std::fprintf(F, "    {// %s\n", Name);
  for (const DDField &D : Fields) {
    if (D.Count == 1) {
      std::fprintf(F, "        {%a, %a}, // %s\n", D.At->Hi, D.At->Lo, D.Name);
      continue;
    }
    std::fprintf(F, "        {// %s[%d]\n", D.Name, D.Count);
    for (int I = 0; I < D.Count; ++I)
      std::fprintf(F, "            {%a, %a},\n", D.At[I].Hi, D.At[I].Lo);
    std::fprintf(F, "        },\n");
  }
  std::fprintf(F, "    },\n");
}

/// OracleFastTables.inc: \p T as a constant-initialized aggregate.
static void emitOracleFastTables(FILE *F, const oracle_fast::Tables &T) {
  std::fprintf(
      F, "// Generated by tools/gentables from oracle_fast::computeTables(). Do\n"
         "// not edit by hand: OracleFastTest.ConstantTablesMatchTheMPLayer\n"
         "// recomputes every entry from the MP layer and compares it bit for\n"
         "// bit. Included by OracleFast.cpp and, through OracleFastLanes.h,\n"
         "// by the lane kernels.\n\n"
         "constexpr oracle_fast::Tables CommittedTables = {\n");
  const oracle_fast::ExpConsts &E = T.Exp;
  emitDDStruct(F, "Exp",
               {{"Log2E", &E.Log2E, 1},
                {"Log2_10", &E.Log2_10, 1},
                {"Ln2", &E.Ln2, 1},
                {"Pow2", E.Pow2, 128},
                {"InvFact", E.InvFact, 12}});
  const oracle_fast::LogConsts &L = T.Log;
  emitDDStruct(F, "Log",
               {{"Ln2", &L.Ln2, 1},
                {"Log10_2", &L.Log10_2, 1},
                {"InvLn2", &L.InvLn2, 1},
                {"InvLn10", &L.InvLn10, 1},
                {"SeriesC", L.SeriesC, 13},
                {"LnF", L.LnF, 256},
                {"Log2F", L.Log2F, 256},
                {"Log10F", L.Log10F, 256}});
  std::fprintf(F, "};\n");
}

static void emitArray(FILE *F, const char *Name, const double *V, int N) {
  std::fprintf(F, "inline constexpr double %s[%d] = {\n", Name, N);
  for (int I = 0; I < N; ++I)
    std::fprintf(F, "    %a,%s", V[I], (I % 2 == 1 || I == N - 1) ? "\n" : "");
  std::fprintf(F, "};\n\n");
}

int main() {
  constexpr RoundingMode RN = RoundingMode::NearestEven;
  constexpr int ExpTableSize = 16; // 2^(j/16)
  constexpr int LogTableSize = 32; // F = 1 + j/32

  double T2[ExpTableSize];
  double LOG2F[LogTableSize], LNF[LogTableSize], LOG10F[LogTableSize],
      ONEBYF[LogTableSize];
  for (int J = 0; J < ExpTableSize; ++J) {
    MPFloat X = MPFloat::div(MPFloat::fromInt(J),
                             MPFloat::fromInt(ExpTableSize), 64, RN);
    T2[J] = mpt::exp2(X, 53, RN).toDouble();
  }
  for (int J = 0; J < LogTableSize; ++J) {
    MPFloat F = MPFloat::div(MPFloat::fromInt(LogTableSize + J),
                             MPFloat::fromInt(LogTableSize), 64, RN);
    LOG2F[J] = mpt::log2(F, 53, RN).toDouble();
    LNF[J] = mpt::log(F, 53, RN).toDouble();
    LOG10F[J] = mpt::log10(F, 53, RN).toDouble();
    ONEBYF[J] = MPFloat::div(MPFloat::fromInt(LogTableSize),
                             MPFloat::fromInt(LogTableSize + J), 53, RN)
                    .toDouble();
  }

  FILE *Out = std::fopen("src/libm/generated/Tables.inc", "w");
  std::fprintf(
      Out,
      "// Generated by tools/gentables. Do not edit by hand.\n"
      "// Every entry is the correctly rounded double of the exact\n"
      "// mathematical value (computed with the MP oracle substrate).\n\n");
  emitArray(Out, "Exp2Table", T2, ExpTableSize);       // 2^(j/16)
  emitArray(Out, "Log2FTable", LOG2F, LogTableSize);   // log2(1 + j/32)
  emitArray(Out, "LnFTable", LNF, LogTableSize);       // ln(1 + j/32)
  emitArray(Out, "Log10FTable", LOG10F, LogTableSize); // log10(1 + j/32)
  emitArray(Out, "OneByFTable", ONEBYF, LogTableSize); // 32/(32+j)

  // Cody-Waite split constants for the exp/exp10 reductions: the head has
  // 38 significant bits so k * head is exact for |k| < 2^14.
  MPFloat Ln2by16 =
      MPFloat::div(mpt::ln2(200), MPFloat::fromInt(ExpTableSize), 150, RN);
  double Ln2by16Hi =
      MPFloat::fromRational(Ln2by16.toRational(), 38, RoundingMode::TowardZero)
          .toDouble();
  double Ln2by16Lo =
      MPFloat::sub(Ln2by16, MPFloat::fromDouble(Ln2by16Hi), 53, RN).toDouble();
  MPFloat Lg2by16 =
      MPFloat::div(MPFloat::div(mpt::ln2(200), mpt::ln10(200), 150, RN),
                   MPFloat::fromInt(ExpTableSize), 150, RN);
  double Lg2by16Hi =
      MPFloat::fromRational(Lg2by16.toRational(), 38, RoundingMode::TowardZero)
          .toDouble();
  double Lg2by16Lo =
      MPFloat::sub(Lg2by16, MPFloat::fromDouble(Lg2by16Hi), 53, RN).toDouble();
  double InvLn2x16 =
      MPFloat::div(MPFloat::fromInt(ExpTableSize), mpt::ln2(200), 53, RN)
          .toDouble();
  double Log2_10x16 =
      MPFloat::mulInt(MPFloat::div(mpt::ln10(200), mpt::ln2(200), 150, RN),
                      ExpTableSize, 53, RN)
          .toDouble();
  double Ln2D = mpt::ln2(53).toDouble();
  double Log10_2D =
      MPFloat::div(mpt::ln2(200), mpt::ln10(200), 53, RN).toDouble();

  std::fprintf(Out,
               "inline constexpr double Ln2By16Hi = %a; // head, 38 bits\n",
               Ln2by16Hi);
  std::fprintf(Out, "inline constexpr double Ln2By16Lo = %a;\n", Ln2by16Lo);
  std::fprintf(Out, "inline constexpr double Log10_2By16Hi = %a;\n",
               Lg2by16Hi);
  std::fprintf(Out, "inline constexpr double Log10_2By16Lo = %a;\n",
               Lg2by16Lo);
  std::fprintf(Out, "inline constexpr double SixteenByLn2 = %a;\n", InvLn2x16);
  std::fprintf(Out, "inline constexpr double SixteenLog2_10 = %a;\n",
               Log2_10x16);
  std::fprintf(Out, "inline constexpr double Ln2 = %a;\n", Ln2D);
  std::fprintf(Out, "inline constexpr double Log10_2 = %a;\n", Log10_2D);
  std::fclose(Out);
  std::printf("wrote src/libm/generated/Tables.inc\n");

  Out = std::fopen("src/oracle/OracleFastTables.inc", "w");
  emitOracleFastTables(Out, oracle_fast::computeTables());
  std::fclose(Out);
  std::printf("wrote src/oracle/OracleFastTables.inc\n");
  return 0;
}
