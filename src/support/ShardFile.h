//===- support/ShardFile.h - Resumable on-disk shard sets -------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk format for sharded, resumable jobs (polygen's sharded
/// prepare, verify's sharded sweeps). A job's domain of DomainSize items
/// splits into NumShards contiguous ranges; each shard persists an opaque
/// byte payload for its range, so a long run can be computed across
/// interruptions (or by several processes sharing a directory) and
/// assembled later. What the bytes mean is the caller's business: each
/// caller keeps its own payload codec.
///
/// Layout under a shard directory, per shard set:
///   <stem>.manifest            -- text: the canonical config line, the
///                                 shard count and the domain size
///   <stem>.shard<K>of<M>.bin   -- binary: a 64-byte header (the config
///                                 line's FNV-1a hash, the shard's index,
///                                 count and range, the payload length
///                                 and its FNV-1a checksum), then the
///                                 payload
///
/// The manifest refuses a directory that belongs to a different
/// configuration, split or format version (including directories from
/// builds before this format), so two runs never mix. Shards are written
/// to a temporary name and renamed into place, so a killed run leaves
/// either a complete, checksummed shard or a `.tmp` file that no reader
/// opens -- never a truncated file under the final name. Multi-byte
/// fields are native-endian: shard sets are machine-local working state,
/// not interchange files.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SUPPORT_SHARDFILE_H
#define RFP_SUPPORT_SHARDFILE_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

namespace rfp {
namespace shard {

/// Identity of a shard set. Every shard header and the manifest carry it;
/// readers reject any mismatch rather than silently mixing runs.
struct ShardSet {
  std::string Dir;
  std::string Stem;       ///< file-name prefix, e.g. "exp2" or "verify"
  std::string ConfigLine; ///< one line naming everything that shapes the
                          ///< payloads; the manifest stores it verbatim
  uint32_t NumShards = 0;
  uint64_t DomainSize = 0;

  std::string manifestPath() const;
  std::string shardPath(unsigned K) const;

  /// Domain range [Begin, End) of shard \p K: NumShards near-equal
  /// contiguous ranges (ceil division, so trailing shards of a ragged
  /// split may be empty but never overlap).
  std::pair<uint64_t, uint64_t> range(unsigned K) const;
};

/// Streaming shard writer. open() writes the manifest (or checks the one
/// already there), write() appends payload bytes, finalize() stamps the
/// header and renames the temporary file into place. Destroying an
/// unfinalized writer removes the temporary.
class ShardWriter {
public:
  ShardWriter() = default;
  ~ShardWriter();
  ShardWriter(const ShardWriter &) = delete;
  ShardWriter &operator=(const ShardWriter &) = delete;

  bool open(const ShardSet &S, unsigned K, std::string *Err = nullptr);
  bool write(const void *Data, size_t Len, std::string *Err = nullptr);
  bool finalize(std::string *Err = nullptr);

private:
  std::FILE *F = nullptr;
  ShardSet Set;
  unsigned ShardIdx = 0;
  std::string TmpPath;
  uint64_t PayloadBytes = 0, Checksum = 0;
};

/// Streaming shard reader. open() checks the header against the expected
/// identity and range and the file's length against the header; read()
/// hands back payload bytes in order; finish(), after the whole payload
/// was read, checks the checksum. Bytes are not trusted until finish()
/// returns true.
class ShardReader {
public:
  ShardReader() = default;
  ~ShardReader();
  ShardReader(const ShardReader &) = delete;
  ShardReader &operator=(const ShardReader &) = delete;

  bool open(const ShardSet &S, unsigned K, std::string *Err = nullptr);
  /// Payload length in bytes.
  uint64_t size() const { return PayloadBytes; }
  /// Reads exactly \p Len more payload bytes.
  bool read(void *Out, size_t Len, std::string *Err = nullptr);
  bool finish(std::string *Err = nullptr);

private:
  void close();

  std::FILE *F = nullptr;
  std::string Path;
  uint64_t PayloadBytes = 0, Consumed = 0;
  uint64_t Expected = 0, Running = 0;
};

/// True when shard \p K of \p S exists and passes every reader check over
/// a full streaming read. This is the resume predicate: invalid or
/// missing shards are recomputed.
bool shardValid(const ShardSet &S, unsigned K);

/// Parses a shard-count flag: "M" (`--shards M`) when \p K is null, "K/M"
/// (`--shard K/M`) otherwise, each number through parseCount, with
/// 1 <= M < 2^32 and K < M.
bool parseShardFlag(const char *Arg, unsigned *K, unsigned &M);

} // namespace shard

/// Parses a whole command-line number: decimal digits only (no sign,
/// space or prefix), no overflow, and Min <= value <= Max. \p Out is left
/// alone on failure. The tools read every numeric argument through it, so
/// a typo is a usage error rather than a silent 0 or a wrapped value.
bool parseCount(const char *Arg, uint64_t Min, uint64_t Max, uint64_t &Out);

} // namespace rfp

#endif // RFP_SUPPORT_SHARDFILE_H
