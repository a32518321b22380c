//===- oracle/OracleFastTables.h - Fast oracle constants -------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certified fast oracle's double-double constants and tables, 928
/// entries. Each is a value computed by the MPFloat layer at 160 working
/// bits (approx-layer relative error < 2^-148) and split hi/lo, so its
/// representation error is <= ~2^-106 relative. The entries are committed
/// as hex-float literals in the generated OracleFastTables.inc, so the
/// oracle needs no set-up and no thread waits for one.
///
/// computeTables() is the one recipe: `tools/gentables` writes the file
/// from it, and OracleFastTest.ConstantTablesMatchTheMPLayer
/// recomputes every entry and compares it bit for bit with the committed
/// one, so the literals cannot drift from the MP layer.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_ORACLE_ORACLEFASTTABLES_H
#define RFP_ORACLE_ORACLEFASTTABLES_H

#include <cstddef>

namespace rfp {
namespace oracle_fast {

/// An unevaluated sum Hi + Lo with |Lo| <= ulp(Hi)/2, ~106 bits.
struct DD {
  double Hi;
  double Lo;
};

struct ExpConsts {
  DD Log2E;       ///< log2(e) = 1/ln2
  DD Log2_10;     ///< log2(10)
  DD Ln2;         ///< ln 2
  DD Pow2[128];   ///< 2^(j/128), j = 0..127
  DD InvFact[12]; ///< 1/i!, i = 0..11
};

struct LogConsts {
  DD Ln2;         ///< ln 2
  DD Log10_2;     ///< log10(2)
  DD InvLn2;      ///< 1/ln2 = log2(e)
  DD InvLn10;     ///< 1/ln10 = log10(e)
  DD SeriesC[13]; ///< (-1)^k / (k+1), k = 0..12 (the log1p series).
  DD LnF[256];    ///< ln(1 + j/256)
  DD Log2F[256];  ///< log2(1 + j/256)
  DD Log10F[256]; ///< log10(1 + j/256)
};

struct Tables {
  ExpConsts Exp;
  LogConsts Log;
};

/// Every member is a DD, so the tables are a packed array of entries.
inline constexpr size_t NumTableEntries = 928;
static_assert(sizeof(Tables) == NumTableEntries * sizeof(DD),
              "the tables are a packed array of DD entries");

/// The committed tables (OracleFastTables.inc), constant-initialized.
const Tables &tables();

/// Recomputes every entry from the MP layer: tens of milliseconds.
Tables computeTables();

} // namespace oracle_fast
} // namespace rfp

#endif // RFP_ORACLE_ORACLEFASTTABLES_H
