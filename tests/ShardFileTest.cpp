//===- tests/ShardFileTest.cpp - Shard-set primitive tests ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The on-disk recipe behind verify's sharded runs (per-unit results),
// tested on raw payloads: the ceil split, a streamed round trip, every
// reader check (identity, length, checksum), manifest pinning --
// including directories written by older formats -- and the parser
// verify reads --shards / --shard with.
//
//===----------------------------------------------------------------------===//

#include "support/ShardFile.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <vector>

using namespace rfp;
using namespace rfp::shard;

namespace {

std::string tempDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "rfp_shardfile_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::vector<char> fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

void rewrite(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

TEST(ShardFileTest, CeilSplitCoversTheDomainOnce) {
  ShardSet S{"d", "t", "c", 0, 0};
  for (unsigned M : {1u, 3u, 4u, 7u, 16u})
    for (uint64_t D : {0ull, 1ull, 10ull, 12ull, 1000003ull}) {
      S.NumShards = M;
      S.DomainSize = D;
      uint64_t Next = 0;
      for (unsigned K = 0; K < M; ++K) {
        auto [Begin, End] = S.range(K);
        EXPECT_EQ(Begin, Next) << "M=" << M << " D=" << D << " K=" << K;
        EXPECT_LE(Begin, End);
        EXPECT_LE(End - Begin, (D + M - 1) / M);
        Next = End;
      }
      EXPECT_EQ(Next, D) << "M=" << M << " D=" << D;
    }
}

TEST(ShardFileTest, StreamedRoundTripAndReaderChecks) {
  const ShardSet S{tempDir("roundtrip"), "t", "unit-test v=1", 3, 10};
  std::vector<unsigned char> Payload(1000);
  std::iota(Payload.begin(), Payload.end(), 0);
  std::string Err;
  {
    ShardWriter W;
    ASSERT_TRUE(W.open(S, 1, &Err)) << Err;
    ASSERT_TRUE(W.write(Payload.data(), 300, &Err)) << Err;
    ASSERT_TRUE(W.write(Payload.data() + 300, 700, &Err)) << Err;
    ASSERT_TRUE(W.finalize(&Err)) << Err;
  }
  EXPECT_FALSE(std::filesystem::exists(S.shardPath(1) + ".tmp"));

  {
    ShardReader R;
    ASSERT_TRUE(R.open(S, 1, &Err)) << Err;
    ASSERT_EQ(R.size(), Payload.size());
    std::vector<unsigned char> Got(Payload.size());
    ASSERT_TRUE(R.read(Got.data(), 999, &Err)) << Err;
    EXPECT_FALSE(R.finish()); // one byte still unread
    EXPECT_FALSE(R.read(Got.data() + 999, 2)); // past the end
    ASSERT_TRUE(R.read(Got.data() + 999, 1, &Err)) << Err;
    EXPECT_TRUE(R.finish(&Err)) << Err;
    EXPECT_EQ(Got, Payload);
  }
  EXPECT_TRUE(shardValid(S, 1));

  // Any other identity is refused: config line, domain, shard index (the
  // shard count is part of the file name, so it misses the file).
  ShardSet Other = S;
  Other.ConfigLine = "unit-test v=2";
  EXPECT_FALSE(shardValid(Other, 1));
  Other = S;
  Other.DomainSize = 11;
  EXPECT_FALSE(shardValid(Other, 1));
  std::filesystem::copy_file(S.shardPath(1), S.shardPath(2));
  EXPECT_FALSE(shardValid(S, 2));

  // Length and checksum.
  const std::vector<char> Good = fileBytes(S.shardPath(1));
  std::vector<char> Bad(Good.begin(), Good.end() - 1);
  rewrite(S.shardPath(1), Bad);
  EXPECT_FALSE(shardValid(S, 1));
  Bad = Good;
  Bad.push_back(0);
  rewrite(S.shardPath(1), Bad);
  EXPECT_FALSE(shardValid(S, 1));
  Bad = Good;
  Bad[Good.size() - 100] ^= 0x04;
  rewrite(S.shardPath(1), Bad);
  EXPECT_FALSE(shardValid(S, 1));
  rewrite(S.shardPath(1), Good);
  EXPECT_TRUE(shardValid(S, 1));
  std::filesystem::remove_all(S.Dir);
}

TEST(ShardFileTest, ManifestRefusesAnotherRunOrAnOlderFormat) {
  const ShardSet S{tempDir("manifest"), "t", "unit-test v=1", 3, 10};
  std::string Err;
  {
    // An unfinalized writer leaves neither the shard nor its temporary.
    ShardWriter W;
    ASSERT_TRUE(W.open(S, 0, &Err)) << Err;
    ASSERT_TRUE(W.write("abc", 3, &Err)) << Err;
  }
  EXPECT_TRUE(std::filesystem::exists(S.manifestPath()));
  EXPECT_FALSE(std::filesystem::exists(S.shardPath(0)));
  EXPECT_FALSE(std::filesystem::exists(S.shardPath(0) + ".tmp"));

  auto Refused = [&](const ShardSet &T) {
    ShardWriter W;
    Err.clear();
    return !W.open(T, 0, &Err) &&
           Err.find("manifest") != std::string::npos;
  };
  ShardSet Other = S;
  Other.ConfigLine = "unit-test v=2";
  EXPECT_TRUE(Refused(Other)) << Err;
  Other = S;
  Other.NumShards = 4;
  EXPECT_TRUE(Refused(Other)) << Err;
  Other = S;
  Other.DomainSize = 11;
  EXPECT_TRUE(Refused(Other)) << Err;

  // A directory from a build before this format.
  const ShardSet Old{tempDir("old"), "exp2", "func=exp2", 3, 10};
  std::filesystem::create_directories(Old.Dir);
  std::ofstream(Old.manifestPath())
      << "rfp-shard-manifest v1\nfunc exp2\nstride 262147\nwindow 96\n"
         "shards 3\ncandidates 10\n";
  EXPECT_TRUE(Refused(Old)) << Err;

  ShardWriter W;
  EXPECT_FALSE(W.open(S, 3, &Err)); // K >= M
  Other = S;
  Other.ConfigLine = "two\nlines";
  EXPECT_FALSE(W.open(Other, 0, &Err));
  std::filesystem::remove_all(S.Dir);
  std::filesystem::remove_all(Old.Dir);
}

TEST(ShardFileTest, ParseShardFlag) {
  unsigned K = 77, M = 77;
  EXPECT_TRUE(parseShardFlag("3", nullptr, M));
  EXPECT_EQ(M, 3u);
  EXPECT_TRUE(parseShardFlag("4294967295", nullptr, M));
  EXPECT_EQ(M, 4294967295u);
  EXPECT_TRUE(parseShardFlag("0/1", &K, M));
  EXPECT_EQ(K, 0u);
  EXPECT_EQ(M, 1u);
  EXPECT_TRUE(parseShardFlag("2/3", &K, M));
  EXPECT_EQ(K, 2u);
  EXPECT_EQ(M, 3u);

  // Signs, zero, junk, overflow and K >= M are refused, and a refused
  // flag leaves the outputs alone.
  for (const char *Bad : {"", "0", "-1", "+3", " 3", "3 ", "3x", "0x10",
                          "4294967296", "99999999999999999999", "1/2"}) {
    EXPECT_FALSE(parseShardFlag(Bad, nullptr, M)) << "'" << Bad << "'";
    EXPECT_EQ(M, 3u);
  }
  for (const char *Bad :
       {"3/3", "4/3", "0/0", "0/-1", "-1/3", "+1/3", "1/", "/3", "1/2/3",
        "1", "1/3x", "1//3", "1 /3", "4294967296/4294967295"}) {
    EXPECT_FALSE(parseShardFlag(Bad, &K, M)) << "'" << Bad << "'";
    EXPECT_EQ(K, 2u);
    EXPECT_EQ(M, 3u);
  }
}

TEST(ShardFileTest, ParseCount) {
  uint64_t V = 77;
  EXPECT_TRUE(parseCount("0", 0, 10, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseCount("262147", 1, UINT32_MAX, V));
  EXPECT_EQ(V, 262147u);
  EXPECT_TRUE(parseCount("4294967295", 1, UINT32_MAX, V));
  EXPECT_EQ(V, 4294967295u);
  EXPECT_TRUE(parseCount("18446744073709551615", 1, UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_TRUE(parseCount("032", 10, 32, V));
  EXPECT_EQ(V, 32u);

  // Junk, signs, spaces, prefixes, overflow and out-of-range values are
  // refused, and a refused number leaves the output alone.
  V = 5;
  for (const char *Bad : {"", "abc", "-5", "+5", " 5", "5 ", "5x", "0x10",
                          "1e3", "0", "4294967296", "99999999999"}) {
    EXPECT_FALSE(parseCount(Bad, 1, UINT32_MAX, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 5u);
  }
  EXPECT_FALSE(parseCount("18446744073709551616", 0, UINT64_MAX, V));
  EXPECT_FALSE(parseCount("99999999999999999999", 0, UINT64_MAX, V));
  EXPECT_FALSE(parseCount("9", 10, 32, V));
  EXPECT_FALSE(parseCount("33", 10, 32, V));
  EXPECT_FALSE(parseCount("1", 0, 0, V));
  EXPECT_EQ(V, 5u);
}

} // namespace
