#ifndef CEM_PERSIST_FORMAT_H_
#define CEM_PERSIST_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "data/dataset.h"
#include "stream/incremental_cover.h"
#include "util/io.h"

namespace cem::persist {

// On-disk format constants shared by the WAL and snapshot layers. Version
// bumps are additive: a reader accepts versions up to its constant and
// rejects newer files with a clear "unsupported version" status (pinned by
// the golden-fixture tests).

/// Format version of snapshot section files. v1: the initial layout.
inline constexpr uint32_t kSnapshotVersion = 1;
/// Format version of the ingest WAL. v1: header record (fingerprint +
/// base insert count) + chunk records.
inline constexpr uint32_t kWalVersion = 1;

/// 8-byte file magics (io::WriteFramedFile prefixes).
inline constexpr std::string_view kSnapshotMagic = "CEMSNAP1";
inline constexpr std::string_view kWalMagic = "CEMWAL01";

/// First payload byte of every snapshot section file: which section this
/// file claims to be, so a file renamed into the wrong slot is rejected
/// even though its magic and checksum are fine.
enum class Section : uint8_t {
  kManifest = 1,
  kStream = 2,
  kMatches = 3,
  kCover = 4,
  kSignatures = 5,
  kLshShard = 6,
  // 7 and 8 tagged the retired standalone token-index files; never reuse.
};

/// Identity of the run a WAL or snapshot belongs to: the dataset shape and
/// every option that changes streamed state. Written into the WAL header
/// and each snapshot MANIFEST; recovery refuses state whose fingerprint
/// disagrees with the live configuration — replaying a WAL against the
/// wrong corpus or thresholds would otherwise "succeed" with garbage.
struct StateFingerprint {
  uint64_t dataset_entities = 0;
  uint64_t dataset_pairs = 0;
  uint32_t num_hashes = 0;
  uint64_t minhash_seed = 0;
  uint32_t bands = 0;
  uint32_t rows = 0;
  double loose = 0.0;
  double tight = 0.0;

  static StateFingerprint Of(const data::Dataset& dataset,
                             const stream::IncrementalCoverOptions& options);

  void AppendTo(io::Buffer& buffer) const;
  /// Reads the fields in AppendTo order; on short input the cursor is
  /// poisoned (caller validates cursor.ok()).
  static StateFingerprint ReadFrom(io::Cursor& cursor);

  friend bool operator==(const StateFingerprint&,
                         const StateFingerprint&) = default;
};

/// The snapshot subdirectory name at `inserts` live references —
/// zero-padded so lexicographic order equals numeric order.
std::string SnapshotDirName(size_t inserts);

}  // namespace cem::persist

#endif  // CEM_PERSIST_FORMAT_H_
