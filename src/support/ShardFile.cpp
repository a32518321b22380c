//===- support/ShardFile.cpp - Resumable on-disk shard sets ---------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ShardFile.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>
#include <tuple>
#include <vector>

using namespace rfp;
using namespace rfp::shard;

namespace {

// The format version lives in both tags: bump them together when the
// layout changes, so directories from older builds are refused, not
// misread.
constexpr char ManifestTag[] = "rfp-shard-manifest v2";
constexpr char Magic[8] = {'R', 'F', 'P', 'S', 'H', 'R', 'D', '2'};

constexpr uint64_t FnvOffset = 14695981039346656037ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

uint64_t fnv1a(const void *Data, size_t Len, uint64_t H = FnvOffset) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

/// Fixed 64-byte file header. The placeholder a writer opens with is all
/// zeros (no magic), so a reader rejects an unfinished file even if it
/// somehow landed under the final name.
struct Header {
  char Mag[8];
  uint32_t ShardIdx;
  uint32_t NumShards;
  uint64_t ConfigHash;
  uint64_t DomainSize;
  uint64_t Begin;
  uint64_t End;
  uint64_t PayloadBytes;
  uint64_t Checksum;
};
static_assert(sizeof(Header) == 64, "packed header layout");

/// The identity fields shard \p K of \p S must carry; PayloadBytes and
/// Checksum are left zero.
Header identityHeader(const ShardSet &S, unsigned K) {
  Header H = {};
  std::memcpy(H.Mag, Magic, sizeof(Magic));
  H.ShardIdx = K;
  H.NumShards = S.NumShards;
  H.ConfigHash = fnv1a(S.ConfigLine.data(), S.ConfigLine.size());
  H.DomainSize = S.DomainSize;
  std::tie(H.Begin, H.End) = S.range(K);
  return H;
}

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

/// Creates the directory if needed and writes the manifest atomically.
/// When a manifest already exists it must match byte for byte: otherwise
/// the directory belongs to another run.
bool writeOrCheckManifest(const ShardSet &S, std::string *Err) {
  if (S.ConfigLine.find('\n') != std::string::npos)
    return fail(Err, "shard config line must be a single line");
  std::error_code EC;
  std::filesystem::create_directories(S.Dir, EC);
  if (EC)
    return fail(Err,
                "cannot create shard directory " + S.Dir + ": " + EC.message());

  const std::string Path = S.manifestPath();
  const std::string Want = std::string(ManifestTag) + "\nconfig " +
                           S.ConfigLine + "\nshards " +
                           std::to_string(S.NumShards) + "\ndomain " +
                           std::to_string(S.DomainSize) + "\n";
  if (std::filesystem::exists(Path)) {
    std::ifstream In(Path, std::ios::binary);
    std::string Got((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
    if (Got != Want)
      return fail(Err, "shard manifest " + Path +
                           " does not match this run (another "
                           "configuration, shard count or format version); "
                           "use a fresh shard directory");
    return true;
  }

  const std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "w");
  if (!F)
    return fail(Err, "cannot write " + Tmp);
  bool Ok = std::fputs(Want.c_str(), F) >= 0 && std::fflush(F) == 0;
  Ok = (std::fclose(F) == 0) && Ok;
  if (!Ok)
    return fail(Err, "short write to " + Tmp);
  std::filesystem::rename(Tmp, Path, EC);
  if (EC)
    return fail(Err, "cannot rename " + Tmp + ": " + EC.message());
  return true;
}

} // namespace

std::string ShardSet::manifestPath() const {
  return Dir + "/" + Stem + ".manifest";
}

std::string ShardSet::shardPath(unsigned K) const {
  return Dir + "/" + Stem + ".shard" + std::to_string(K) + "of" +
         std::to_string(NumShards) + ".bin";
}

std::pair<uint64_t, uint64_t> ShardSet::range(unsigned K) const {
  uint64_t Per =
      NumShards ? (DomainSize + NumShards - 1) / NumShards : DomainSize;
  uint64_t Begin = std::min<uint64_t>(DomainSize, uint64_t{K} * Per);
  return {Begin, std::min<uint64_t>(DomainSize, Begin + Per)};
}

//===----------------------------------------------------------------------===//
// ShardWriter
//===----------------------------------------------------------------------===//

ShardWriter::~ShardWriter() {
  if (F) {
    std::fclose(F);
    std::error_code EC;
    std::filesystem::remove(TmpPath, EC); // Abandoned: drop the temporary.
  }
}

bool ShardWriter::open(const ShardSet &S, unsigned K, std::string *Err) {
  if (F)
    return fail(Err, "shard writer already open");
  if (K >= S.NumShards)
    return fail(Err, "shard index " + std::to_string(K) + " out of range (" +
                         std::to_string(S.NumShards) + " shards)");
  if (!writeOrCheckManifest(S, Err))
    return false;
  Set = S;
  ShardIdx = K;
  PayloadBytes = 0;
  Checksum = FnvOffset;
  TmpPath = S.shardPath(K) + ".tmp";
  F = std::fopen(TmpPath.c_str(), "wb");
  if (!F)
    return fail(Err, "cannot create " + TmpPath);
  const Header Placeholder = {};
  if (std::fwrite(&Placeholder, sizeof(Placeholder), 1, F) != 1)
    return fail(Err, "short write to " + TmpPath);
  return true;
}

bool ShardWriter::write(const void *Data, size_t Len, std::string *Err) {
  if (!F)
    return fail(Err, "shard writer not open");
  if (Len == 0)
    return true;
  Checksum = fnv1a(Data, Len, Checksum);
  if (std::fwrite(Data, 1, Len, F) != Len)
    return fail(Err, "short write to " + TmpPath);
  PayloadBytes += Len;
  return true;
}

bool ShardWriter::finalize(std::string *Err) {
  if (!F)
    return fail(Err, "shard writer not open");
  Header H = identityHeader(Set, ShardIdx);
  H.PayloadBytes = PayloadBytes;
  H.Checksum = Checksum;
  bool Ok = std::fseek(F, 0, SEEK_SET) == 0 &&
            std::fwrite(&H, sizeof(H), 1, F) == 1 && std::fflush(F) == 0;
  Ok = (std::fclose(F) == 0) && Ok;
  F = nullptr;
  std::error_code EC;
  if (!Ok) {
    std::filesystem::remove(TmpPath, EC);
    return fail(Err, "short write finalizing " + TmpPath);
  }
  std::filesystem::rename(TmpPath, Set.shardPath(ShardIdx), EC);
  if (EC)
    return fail(Err, "cannot rename " + TmpPath + ": " + EC.message());
  return true;
}

//===----------------------------------------------------------------------===//
// ShardReader
//===----------------------------------------------------------------------===//

ShardReader::~ShardReader() { close(); }

void ShardReader::close() {
  if (F)
    std::fclose(F);
  F = nullptr;
}

bool ShardReader::open(const ShardSet &S, unsigned K, std::string *Err) {
  if (F)
    return fail(Err, "shard reader already open");
  Path = S.shardPath(K);
  F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail(Err, "cannot open shard " + Path);
  const Header Want = identityHeader(S, K);
  Header H = {};
  if (std::fread(&H, sizeof(H), 1, F) != 1 ||
      std::memcmp(&H, &Want, offsetof(Header, PayloadBytes)) != 0) {
    close();
    return fail(Err,
                "shard " + Path + " does not match the expected configuration");
  }
  std::error_code EC;
  uint64_t FileBytes = std::filesystem::file_size(Path, EC);
  if (EC || FileBytes < sizeof(Header) ||
      H.PayloadBytes != FileBytes - sizeof(Header)) {
    close();
    return fail(Err, "shard " + Path + " is truncated or has trailing bytes");
  }
  PayloadBytes = H.PayloadBytes;
  Consumed = 0;
  Expected = H.Checksum;
  Running = FnvOffset;
  return true;
}

bool ShardReader::read(void *Out, size_t Len, std::string *Err) {
  if (!F)
    return fail(Err, "shard reader not open");
  if (Len > PayloadBytes - Consumed)
    return fail(Err, "read past the end of shard " + Path);
  if (Len != 0 && std::fread(Out, 1, Len, F) != Len)
    return fail(Err, "truncated shard " + Path);
  Running = fnv1a(Out, Len, Running);
  Consumed += Len;
  return true;
}

bool ShardReader::finish(std::string *Err) {
  if (!F)
    return fail(Err, "shard reader not open");
  if (Consumed != PayloadBytes)
    return fail(Err, "shard " + Path + " not fully read");
  if (Running != Expected)
    return fail(Err, "shard " + Path +
                         " checksum mismatch (corrupt or interrupted file)");
  return true;
}

bool shard::shardValid(const ShardSet &S, unsigned K) {
  ShardReader R;
  if (!R.open(S, K))
    return false;
  std::vector<unsigned char> Buf(1 << 16);
  for (uint64_t Left = R.size(); Left > 0;) {
    size_t N = static_cast<size_t>(std::min<uint64_t>(Left, Buf.size()));
    if (!R.read(Buf.data(), N))
      return false;
    Left -= N;
  }
  return R.finish();
}

bool shard::parseShardFlag(const char *Arg, unsigned *K, unsigned &M) {
  uint64_t KV = 0, MV = 0; // KV stays 0 for "M", so M >= KV + 1 >= 1.
  if (K) {
    const char *Slash = std::strchr(Arg, '/');
    if (!Slash ||
        !parseCount(std::string(Arg, Slash).c_str(), 0, UINT32_MAX, KV))
      return false;
    Arg = Slash + 1;
  }
  if (!parseCount(Arg, KV + 1, UINT32_MAX, MV))
    return false;
  if (K)
    *K = static_cast<unsigned>(KV);
  M = static_cast<unsigned>(MV);
  return true;
}

bool rfp::parseCount(const char *Arg, uint64_t Min, uint64_t Max,
                     uint64_t &Out) {
  uint64_t V = 0;
  const char *P = Arg;
  for (; *P >= '0' && *P <= '9'; ++P) {
    uint64_t D = static_cast<uint64_t>(*P - '0');
    if (D > Max || V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
  }
  if (P == Arg || *P != '\0' || V < Min)
    return false;
  Out = V;
  return true;
}
