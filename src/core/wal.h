// Write-ahead log with the paper's §3.3 logging scheme: LevelDB's own log
// is disabled; instead every inserted sample is logged with its series/
// group sequence ID, and when a chunk reaches level 0 a special flush-mark
// record (id, seq) declares all earlier records of that id obsolete. The
// log is a registration log plus numbered append-only sample segments; a
// sealed segment is deleted whole once flush marks cover every sample in
// it (see WalWriter).
//
// Record framing: [fixed32 masked-crc][fixed32 len][payload]. Payload:
//   type byte, then per type:
//     kRegisterSeries:  varint id | labels
//     kRegisterGroup:   varint id | group labels
//     kRegisterMember:  varint gid | varint slot | labels
//     kSample:          varint id | varint seq | fixed64 ts | fixed64 value
//     kGroupSample:     varint gid | varint seq | fixed64 ts |
//                       varint n | n*(varint slot, fixed64 value)
//     kFlushMark:       varint id | varint seq
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/block_store.h"
#include "index/labels.h"
#include "util/status.h"

namespace tu::core {

enum class WalRecordType : char {
  kRegisterSeries = 1,
  kRegisterGroup = 2,
  kRegisterMember = 3,
  kSample = 4,
  kGroupSample = 5,
  kFlushMark = 6,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kSample;
  uint64_t id = 0;
  uint64_t seq = 0;
  int64_t ts = 0;
  double value = 0;
  uint32_t slot = 0;                     // kRegisterMember
  index::Labels labels;                  // register records
  std::vector<uint32_t> slots;           // kGroupSample
  std::vector<double> values;            // kGroupSample
};

void EncodeWalRecord(const WalRecord& record, std::string* out);
Status DecodeWalRecord(const Slice& payload, WalRecord* record);

/// What a WAL replay salvaged and what it had to drop. A clean log ends
/// exactly at a record boundary; a crash mid-append leaves a truncated
/// tail (expected, tolerated); a CRC mismatch before the tail means the
/// log body itself is damaged and everything after it is dropped.
struct WalReplayStats {
  uint64_t records_applied = 0;
  /// Whole records past the corruption point that framed+checksummed
  /// correctly but were not applied (replay cannot trust their order).
  uint64_t records_dropped = 0;
  /// Bytes from the first bad frame to end of log.
  uint64_t bytes_dropped = 0;
  /// Byte offset of the first bad frame within `corrupt_file`, or
  /// kNoCorruption.
  uint64_t corruption_offset = kNoCorruption;
  std::string corrupt_file;
  /// The last file ended exactly on a record boundary.
  bool clean_eof = false;
  /// A file's final frame was cut short (crash mid-append) — benign: the
  /// next process started a fresh segment after it.
  bool torn_tail = false;

  static constexpr uint64_t kNoCorruption = ~0ull;

  bool Clean() const { return corruption_offset == kNoCorruption; }
  std::string ToString() const;
};

/// File name of sample segment `number` of the log rooted at `prefix`
/// (`<prefix>.000001`, ...; the registration log is `<prefix>.reg`).
std::string WalSegmentName(const std::string& prefix, uint64_t number);
/// Numbers of the segments of `prefix` on disk, ascending.
Status ListWalSegments(cloud::BlockStore* store, const std::string& prefix,
                       std::vector<uint64_t>* numbers);

/// The WAL is the one serialized append point of the write path: inserts
/// from any number of shards funnel into AppendBatch(), whose internal
/// mutex orders records. Registrations go to one registration log that
/// lives as long as the DB; samples and flush marks go to the active
/// segment. The active segment is sealed (fsynced, closed, replaced by the
/// next number) once it reaches `segment_bytes` and on every Seal(). Each
/// segment keeps an id -> newest-sample-seq table and the writer keeps the
/// newest flushed seq per id (fed by the flush marks); oldest first, a
/// sealed segment is deleted once every id in it is covered. All methods
/// but Open() are thread-safe.
class WalWriter {
 public:
  WalWriter(cloud::BlockStore* store, std::string prefix,
            uint64_t segment_bytes = 16 << 20);

  /// Opens the log after a restart. A single `prefix` file left by the
  /// pre-segment format is first split into the registration log and
  /// segment 0. Scans the registration log, then every segment oldest
  /// first, and calls `fn` (nullable) with what the restart must apply:
  /// every registration, then one kFlushMark per id carrying its newest
  /// flushed seq, then -- in log order -- every sample those marks do not
  /// cover. Covered segments are deleted. A damaged frame in the
  /// registration log truncates it to its intact prefix and costs only the
  /// registrations after it; the segments are scanned regardless. A damaged
  /// frame in a segment ends the segment scan: that segment keeps only its
  /// intact prefix and every later segment is renamed to `<name>.bad`, so
  /// the next open does not stop at the same damage. Either damaged file's
  /// original is copied to `<name>.bad`. The registration log is rewritten
  /// once and a fresh active segment starts. `stats` (nullable) reports
  /// what the scan salvaged and dropped. `fn` runs without the writer's
  /// mutex, so it may take locks that rank above it, and the writer
  /// already accepts appends (flush marks of chunks `fn` flushes).
  Status Open(const std::function<Status(const WalRecord&)>& fn = nullptr,
              WalReplayStats* stats = nullptr);
  Status Append(const WalRecord& record) { return AppendBatch(&record, 1); }
  /// Frames `n` records into one buffer per file and appends them with a
  /// single mutex acquisition: registrations to the registration log, the
  /// rest to the active segment. Framing is identical to n Append() calls.
  /// Flush marks advance the covered seqs and run the drop check.
  Status AppendBatch(const WalRecord* records, size_t n);
  /// Makes every appended record durable (fsyncs whichever file has
  /// unsynced bytes).
  Status Sync();
  /// Sync(), then seals a non-empty active segment, starts the next one
  /// and drops the sealed segments the flush marks cover.
  Status Seal();

  /// First Append/Sync/Seal failure, latched. A poisoned writer fails
  /// every call fast until Rotate() rebuilds the files in flight -- after
  /// a failed fsync the kernel may have dropped the dirty pages while
  /// marking them clean, so neither re-syncing the fd nor trusting a
  /// read-back of the unsynced region proves anything (the fsyncgate
  /// lesson). Sealed segments were fsynced and are never touched.
  Status poison() const;

  /// Recovery from a poisoned writer: rebuilds the active segment and, if
  /// it failed too, the registration log, each into a `.rot` file from the
  /// durably-synced prefix on disk plus the writer's in-memory copy of
  /// every record framed since that file's last good sync, syncs it and
  /// renames it into place. Clears the poison on success; a no-op when
  /// healthy.
  Status Rotate();

  uint64_t live_segments() const {
    return live_segments_.load(std::memory_order_relaxed);
  }
  /// Bytes of the registration log plus every live segment.
  uint64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t segments_dropped() const {
    return segments_dropped_.load(std::memory_order_relaxed);
  }

  /// Segments' worth of live sample bytes past which the oldest sealed
  /// segment counts as pinned.
  static constexpr uint64_t kPinningSegments = 4;
  /// True once the live segments hold more than kPinningSegments *
  /// `segment_bytes` and the oldest sealed segment has not been reported by
  /// TakePinningIds yet. A relaxed load, cheap enough for every write.
  bool pinning_due() const {
    return pinning_due_.load(std::memory_order_relaxed);
  }
  /// When pinning_due(), returns (id, newest seq in the segment) for every
  /// id whose samples in the oldest sealed segment no flush mark covers yet,
  /// and marks that segment reported; otherwise returns nothing. A series
  /// that stops reporting, or reports slowly, keeps its chunk open and so
  /// pins the oldest segment and every later one: the caller closes the
  /// open chunks that still hold such samples, and the flush marks logged
  /// when they reach level 0 let the segment go. Each oldest segment is
  /// reported once, so the caller's work stays bounded.
  std::vector<std::pair<uint64_t, uint64_t>> TakePinningIds();

 private:
  /// One file being appended to: the registration log or the active
  /// segment.
  struct LogFile {
    std::string name;
    std::unique_ptr<cloud::WritableFile> file;
    uint64_t bytes = 0;   // framed bytes appended OK
    uint64_t synced = 0;  // prefix confirmed durable by the last sync
    /// Bytes appended since the last good sync -- the replay source for
    /// Rotate(). Bounded by the segment size (a seal syncs).
    std::string pending_tail;
    bool failed = false;  // an append/sync on it failed; Rotate rebuilds
  };
  struct SealedSegment {
    uint64_t number = 0;
    uint64_t bytes = 0;
    std::vector<std::pair<uint64_t, uint64_t>> max_seq;  // id -> newest seq
    size_t covered = 0;  // prefix of max_seq already known covered
  };

  /// Splits a single-file log of the pre-segment format into the
  /// registration log and segment 0, then deletes it.
  Status MigrateLegacyLog();
  Status WriteLocked(LogFile* log, const std::string& framed);
  Status SyncLocked(LogFile* log);
  Status SealLocked();
  Status StartSegmentLocked(uint64_t number);
  Status RebuildLocked(LogFile* log);
  /// Pops the covered prefix of sealed_ into `doomed` (deleted by the
  /// caller after releasing mu_).
  void CollectCoveredLocked(std::vector<std::string>* doomed);
  void DeleteSegments(const std::vector<std::string>& doomed);
  void PublishLocked();

  cloud::BlockStore* store_;
  std::string prefix_;
  uint64_t segment_bytes_;
  mutable std::mutex mu_;  // guards everything below but the atomics
  Status poison_;          // see poison()
  LogFile reg_;
  LogFile active_;
  uint64_t active_number_ = 0;
  std::unordered_map<uint64_t, uint64_t> active_max_seq_;
  std::deque<SealedSegment> sealed_;  // oldest first
  std::unordered_map<uint64_t, uint64_t> flushed_;  // id -> newest mark
  std::atomic<uint64_t> live_segments_{0};
  std::atomic<uint64_t> live_bytes_{0};
  std::atomic<uint64_t> segments_dropped_{0};
  static constexpr uint64_t kNoSegment = ~0ull;
  uint64_t relieved_number_ = kNoSegment;  // last TakePinningIds segment
  std::atomic<bool> pinning_due_{false};
};

/// Replays the whole log of `prefix` -- the registration log, then every
/// segment oldest first -- invoking `fn` per record, without filtering.
/// Tolerates a truncated tail per file (crash mid-append); a CRC
/// corruption stops the replay at the damaged frame and counts every later
/// frame, later segments included, as dropped. Either way the Status is OK
/// and `stats` (optional) reports what was salvaged vs. dropped.
Status ReplayWal(cloud::BlockStore* store, const std::string& prefix,
                 const std::function<Status(const WalRecord&)>& fn,
                 WalReplayStats* stats = nullptr);

}  // namespace tu::core
