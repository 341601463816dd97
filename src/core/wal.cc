#include "core/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "cloud/fault_injector.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace tu::core {

namespace {

void PutLabels(std::string* out, const index::Labels& labels) {
  PutVarint32(out, static_cast<uint32_t>(labels.size()));
  for (const auto& l : labels) {
    PutLengthPrefixedSlice(out, l.name);
    PutLengthPrefixedSlice(out, l.value);
  }
}

bool GetLabels(Slice* in, index::Labels* labels) {
  uint32_t n = 0;
  if (!GetVarint32(in, &n)) return false;
  labels->clear();
  labels->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Slice name, value;
    if (!GetLengthPrefixedSlice(in, &name) ||
        !GetLengthPrefixedSlice(in, &value)) {
      return false;
    }
    labels->push_back(index::Label{name.ToString(), value.ToString()});
  }
  return true;
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  out->clear();
  out->push_back(static_cast<char>(record.type));
  switch (record.type) {
    case WalRecordType::kRegisterSeries:
    case WalRecordType::kRegisterGroup:
      PutVarint64(out, record.id);
      PutLabels(out, record.labels);
      break;
    case WalRecordType::kRegisterMember:
      PutVarint64(out, record.id);
      PutVarint32(out, record.slot);
      PutLabels(out, record.labels);
      break;
    case WalRecordType::kSample:
      PutVarint64(out, record.id);
      PutVarint64(out, record.seq);
      PutFixed64(out, static_cast<uint64_t>(record.ts));
      PutFixed64(out, DoubleBits(record.value));
      break;
    case WalRecordType::kGroupSample:
      PutVarint64(out, record.id);
      PutVarint64(out, record.seq);
      PutFixed64(out, static_cast<uint64_t>(record.ts));
      PutVarint32(out, static_cast<uint32_t>(record.slots.size()));
      for (size_t i = 0; i < record.slots.size(); ++i) {
        PutVarint32(out, record.slots[i]);
        PutFixed64(out, DoubleBits(record.values[i]));
      }
      break;
    case WalRecordType::kFlushMark:
      PutVarint64(out, record.id);
      PutVarint64(out, record.seq);
      break;
  }
}

Status DecodeWalRecord(const Slice& payload, WalRecord* record) {
  if (payload.empty()) return Status::Corruption("empty wal record");
  Slice in = payload;
  record->type = static_cast<WalRecordType>(in[0]);
  in.remove_prefix(1);
  auto fail = [] { return Status::Corruption("bad wal record"); };
  switch (record->type) {
    case WalRecordType::kRegisterSeries:
    case WalRecordType::kRegisterGroup:
      if (!GetVarint64(&in, &record->id) || !GetLabels(&in, &record->labels)) {
        return fail();
      }
      return Status::OK();
    case WalRecordType::kRegisterMember:
      if (!GetVarint64(&in, &record->id) || !GetVarint32(&in, &record->slot) ||
          !GetLabels(&in, &record->labels)) {
        return fail();
      }
      return Status::OK();
    case WalRecordType::kSample: {
      if (!GetVarint64(&in, &record->id) || !GetVarint64(&in, &record->seq) ||
          in.size() < 16) {
        return fail();
      }
      record->ts = static_cast<int64_t>(DecodeFixed64(in.data()));
      record->value = BitsDouble(DecodeFixed64(in.data() + 8));
      return Status::OK();
    }
    case WalRecordType::kGroupSample: {
      if (!GetVarint64(&in, &record->id) || !GetVarint64(&in, &record->seq) ||
          in.size() < 8) {
        return fail();
      }
      record->ts = static_cast<int64_t>(DecodeFixed64(in.data()));
      in.remove_prefix(8);
      uint32_t n = 0;
      if (!GetVarint32(&in, &n)) return fail();
      record->slots.clear();
      record->values.clear();
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t slot = 0;
        if (!GetVarint32(&in, &slot) || in.size() < 8) return fail();
        record->slots.push_back(slot);
        record->values.push_back(BitsDouble(DecodeFixed64(in.data())));
        in.remove_prefix(8);
      }
      return Status::OK();
    }
    case WalRecordType::kFlushMark:
      if (!GetVarint64(&in, &record->id) || !GetVarint64(&in, &record->seq)) {
        return fail();
      }
      return Status::OK();
  }
  return fail();
}

namespace {

std::string RegistrationLogName(const std::string& prefix) {
  return prefix + ".reg";
}

bool IsRegistration(WalRecordType type) {
  return type == WalRecordType::kRegisterSeries ||
         type == WalRecordType::kRegisterGroup ||
         type == WalRecordType::kRegisterMember;
}

bool IsSample(WalRecordType type) {
  return type == WalRecordType::kSample ||
         type == WalRecordType::kGroupSample;
}

void FrameRecord(const WalRecord& record, std::string* payload,
                 std::string* framed) {
  payload->clear();
  EncodeWalRecord(record, payload);
  PutFixed32(framed,
             crc32c::Mask(crc32c::Value(payload->data(), payload->size())));
  PutFixed32(framed, static_cast<uint32_t>(payload->size()));
  framed->append(*payload);
}

/// Counts the whole, checksummed frames at the head of `in`.
uint64_t CountIntactFrames(Slice in) {
  uint64_t frames = 0;
  while (in.size() >= 8) {
    const uint32_t crc = crc32c::Unmask(DecodeFixed32(in.data()));
    const uint32_t len = DecodeFixed32(in.data() + 4);
    if (in.size() < 8 + static_cast<size_t>(len)) break;
    if (crc32c::Value(in.data() + 8, len) != crc) break;
    ++frames;
    in.remove_prefix(8 + len);
  }
  return frames;
}

/// Replays `files` in order through `fn(file_index, record)`, stopping at
/// the first damaged frame; frames after it, later files included, are
/// counted as dropped. A missing file reads as empty. `intact` (nullable)
/// receives each file's intact-prefix length (0 past the damage).
Status ScanFiles(cloud::BlockStore* store,
                 const std::vector<std::string>& files,
                 const std::function<Status(size_t, const WalRecord&)>& fn,
                 WalReplayStats* stats, std::vector<uint64_t>* intact) {
  *stats = WalReplayStats{};
  if (intact != nullptr) intact->assign(files.size(), 0);
  bool damaged = false;
  bool last_clean = true;
  for (size_t f = 0; f < files.size(); ++f) {
    std::string contents;
    Status s = store->ReadFileToString(files[f], &contents);
    if (s.IsNotFound()) continue;
    TU_RETURN_IF_ERROR(s);
    Slice in(contents);
    if (damaged) {
      stats->records_dropped += CountIntactFrames(in);
      stats->bytes_dropped += in.size();
      continue;
    }
    uint64_t offset = 0;
    last_clean = true;
    while (!in.empty()) {
      if (in.size() < 8 ||
          in.size() < 8 + static_cast<size_t>(DecodeFixed32(in.data() + 4))) {
        // A partial frame: the process died mid-append. Expected; the
        // records before it are all intact, and a later process started a
        // fresh segment after it.
        stats->torn_tail = true;
        last_clean = false;
        break;
      }
      const uint32_t crc = crc32c::Unmask(DecodeFixed32(in.data()));
      const uint32_t len = DecodeFixed32(in.data() + 4);
      const Slice payload(in.data() + 8, len);
      WalRecord record;
      if (crc32c::Value(payload.data(), payload.size()) != crc ||
          !DecodeWalRecord(payload, &record).ok()) {
        // Damage: replay must stop (records past a gap cannot be applied
        // in order), but count what follows so the caller can report how
        // much was lost rather than silently truncating.
        damaged = true;
        stats->corruption_offset = offset;
        stats->corrupt_file = files[f];
        stats->bytes_dropped = in.size();
        in.remove_prefix(8 + len);
        stats->records_dropped = CountIntactFrames(in);
        break;
      }
      TU_RETURN_IF_ERROR(fn(f, record));
      stats->records_applied++;
      in.remove_prefix(8 + len);
      offset += 8 + len;
    }
    if (intact != nullptr) (*intact)[f] = offset;
  }
  stats->clean_eof = !damaged && last_clean;
  return Status::OK();
}

/// One report for the two scans of an open: the registration log's,
/// then the segments'. The first damage found is the one located.
WalReplayStats MergeReplayStats(const WalReplayStats& reg,
                                const WalReplayStats& seg) {
  WalReplayStats out = reg.Clean() ? seg : reg;
  out.records_applied = reg.records_applied + seg.records_applied;
  out.records_dropped = reg.records_dropped + seg.records_dropped;
  out.bytes_dropped = reg.bytes_dropped + seg.bytes_dropped;
  out.clean_eof = reg.clean_eof && seg.clean_eof;
  out.torn_tail = reg.torn_tail || seg.torn_tail;
  return out;
}

}  // namespace

std::string WalSegmentName(const std::string& prefix, uint64_t number) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%06llu",
                static_cast<unsigned long long>(number));
  return prefix + "." + digits;
}

Status ListWalSegments(cloud::BlockStore* store, const std::string& prefix,
                       std::vector<uint64_t>* numbers) {
  numbers->clear();
  std::vector<std::string> names;
  TU_RETURN_IF_ERROR(store->ListDir("", &names));
  const std::string head = prefix + ".";
  for (const std::string& name : names) {
    if (name.size() <= head.size() || name.compare(0, head.size(), head) != 0) {
      continue;
    }
    const std::string rest = name.substr(head.size());
    if (rest.find_first_not_of("0123456789") != std::string::npos) continue;
    numbers->push_back(std::stoull(rest));
  }
  std::sort(numbers->begin(), numbers->end());
  return Status::OK();
}

WalWriter::WalWriter(cloud::BlockStore* store, std::string prefix,
                     uint64_t segment_bytes)
    : store_(store),
      prefix_(std::move(prefix)),
      segment_bytes_(std::max<uint64_t>(1, segment_bytes)) {
  reg_.name = RegistrationLogName(prefix_);
}

Status WalWriter::MigrateLegacyLog() {
  // A log written before segmentation is one `prefix` file with the same
  // framing. Split its intact frames once: registrations become the
  // registration log, everything else the oldest segment (number 0). The
  // legacy file goes last, so a crash midway redoes the split.
  std::string legacy;
  Status s = store_->ReadFileToString(prefix_, &legacy);
  if (s.IsNotFound()) return Status::OK();
  TU_RETURN_IF_ERROR(s);
  std::string reg_frames;
  std::string seg_frames;
  Slice in(legacy);
  while (in.size() >= 8) {
    const uint32_t crc = crc32c::Unmask(DecodeFixed32(in.data()));
    const uint32_t len = DecodeFixed32(in.data() + 4);
    if (in.size() < 8 + static_cast<size_t>(len)) break;
    const Slice payload(in.data() + 8, len);
    WalRecord record;
    if (crc32c::Value(payload.data(), payload.size()) != crc ||
        !DecodeWalRecord(payload, &record).ok()) {
      break;
    }
    (IsRegistration(record.type) ? reg_frames : seg_frames)
        .append(in.data(), 8 + len);
    in.remove_prefix(8 + len);
  }
  if (!in.empty()) {
    // A torn or damaged tail: keep the original beside the split.
    TU_RETURN_IF_ERROR(store_->WriteStringToFile(prefix_ + ".bad", legacy));
  }
  TU_RETURN_IF_ERROR(
      store_->WriteStringToFile(WalSegmentName(prefix_, 0), seg_frames));
  TU_RETURN_IF_ERROR(store_->WriteStringToFile(reg_.name, reg_frames));
  return store_->DeleteFile(prefix_);
}

Status WalWriter::Open(const std::function<Status(const WalRecord&)>& fn,
                       WalReplayStats* stats) {
  std::vector<std::string> doomed;
  std::vector<std::string> live;
  std::unordered_map<uint64_t, uint64_t> flushed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    poison_ = Status::OK();
    sealed_.clear();
    flushed_.clear();
    relieved_number_ = kNoSegment;
    TU_RETURN_IF_ERROR(MigrateLegacyLog());

    // The registration log is scanned on its own: damage there costs only
    // the registrations after it (the caller skips the samples of ids it
    // does not know), never the segments.
    WalReplayStats reg_stats;
    std::vector<uint64_t> reg_intact;
    TU_RETURN_IF_ERROR(ScanFiles(
        store_, {reg_.name},
        [](size_t, const WalRecord&) { return Status::OK(); }, &reg_stats,
        &reg_intact));
    if (!reg_stats.Clean()) {
      std::string contents;
      TU_RETURN_IF_ERROR(store_->ReadFileToString(reg_.name, &contents));
      TU_RETURN_IF_ERROR(
          store_->WriteStringToFile(reg_.name + ".bad", contents));
    }

    std::vector<uint64_t> numbers;
    TU_RETURN_IF_ERROR(ListWalSegments(store_, prefix_, &numbers));
    std::vector<std::string> files;
    for (uint64_t n : numbers) {
      files.push_back(WalSegmentName(prefix_, n));
      SealedSegment seg;
      seg.number = n;
      sealed_.push_back(std::move(seg));
    }

    // Scan: every segment builds its id -> seq table, the marks build the
    // flushed seqs.
    std::vector<std::unordered_map<uint64_t, uint64_t>> tables(
        numbers.size());
    WalReplayStats seg_stats;
    std::vector<uint64_t> intact;
    TU_RETURN_IF_ERROR(ScanFiles(
        store_, files,
        [&](size_t f, const WalRecord& r) -> Status {
          if (IsSample(r.type)) {
            uint64_t& seq = tables[f][r.id];
            seq = std::max(seq, r.seq);
          } else if (r.type == WalRecordType::kFlushMark) {
            uint64_t& seq = flushed_[r.id];
            seq = std::max(seq, r.seq);
          }
          return Status::OK();
        },
        &seg_stats, &intact));
    for (size_t i = 0; i < sealed_.size(); ++i) {
      sealed_[i].bytes = intact[i];
      sealed_[i].max_seq.assign(tables[i].begin(), tables[i].end());
    }

    if (!seg_stats.Clean()) {
      // Set the damage aside so the next open does not stop at it again:
      // the damaged segment keeps its intact prefix (the original is
      // copied to .bad) and every later segment is renamed to .bad.
      size_t d = 0;
      while (files[d] != seg_stats.corrupt_file) ++d;
      std::string contents;
      TU_RETURN_IF_ERROR(store_->ReadFileToString(files[d], &contents));
      TU_RETURN_IF_ERROR(store_->WriteStringToFile(files[d] + ".bad", contents));
      contents.resize(intact[d]);
      TU_RETURN_IF_ERROR(store_->WriteStringToFile(files[d], contents));
      for (size_t f = d + 1; f < files.size(); ++f) {
        TU_RETURN_IF_ERROR(store_->RenameFile(files[f], files[f] + ".bad"));
      }
      sealed_.resize(d + 1);  // segments up to the damaged one stay live
    }

    CollectCoveredLocked(&doomed);
    for (const SealedSegment& seg : sealed_) {
      live.push_back(WalSegmentName(prefix_, seg.number));
    }
    if (fn) flushed = flushed_;

    // Rewrite the registration log once (its intact prefix) and start a
    // fresh active segment after every number seen.
    reg_.file.reset();
    reg_.bytes = reg_.synced = reg_intact[0];
    reg_.pending_tail.clear();
    reg_.failed = false;
    TU_RETURN_IF_ERROR(RebuildLocked(&reg_));
    active_max_seq_.clear();
    TU_RETURN_IF_ERROR(
        StartSegmentLocked(numbers.empty() ? 1 : numbers.back() + 1));
    PublishLocked();
    if (stats != nullptr) *stats = MergeReplayStats(reg_stats, seg_stats);
  }
  DeleteSegments(doomed);
  if (!fn) return Status::OK();

  // Hand the restart its records outside mu_ (`fn` takes locks that rank
  // above the WAL mutex, and the flush marks of chunks it flushes are
  // appended as usual): registrations, the newest flushed seq per id, then
  // the samples those marks do not cover, in log order.
  WalReplayStats ignored;
  TU_RETURN_IF_ERROR(ScanFiles(
      store_, {reg_.name},
      [&](size_t, const WalRecord& r) {
        return IsRegistration(r.type) ? fn(r) : Status::OK();
      },
      &ignored, nullptr));
  for (const auto& [id, seq] : flushed) {
    WalRecord mark;
    mark.type = WalRecordType::kFlushMark;
    mark.id = id;
    mark.seq = seq;
    TU_RETURN_IF_ERROR(fn(mark));
  }
  return ScanFiles(
      store_, live,
      [&](size_t, const WalRecord& r) -> Status {
        if (!IsSample(r.type)) return Status::OK();
        auto it = flushed.find(r.id);
        if (it != flushed.end() && r.seq <= it->second) {
          return Status::OK();  // already safe in the LSM
        }
        return fn(r);
      },
      &ignored, nullptr);
}

Status WalWriter::WriteLocked(LogFile* log, const std::string& framed) {
  Status s = log->file->Append(framed);
  if (!s.ok()) {
    // A failed append (ENOSPC, I/O error) may have landed a partial frame.
    // Appending MORE frames after it would turn a benign torn tail into
    // mid-log damage that replay cannot cross — poison until Rotate()
    // rebuilds a clean file.
    log->failed = true;
    poison_ = s;
    return s;
  }
  // Only bytes that actually reached the file count, and only they join
  // the rotation tail.
  log->bytes += framed.size();
  log->pending_tail += framed;
  return s;
}

Status WalWriter::AppendBatch(const WalRecord* records, size_t n) {
  if (n == 0) return Status::OK();
  std::vector<std::string> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!poison_.ok()) return poison_;
    // Crash here = the process died before the records reached the log:
    // they were never acknowledged, so replay correctly omits them.
    cloud::CrashPoint(store_->fault(), "wal.append");
    // One framed buffer per file: per-record framing is byte-for-byte what
    // n Append() calls would have produced, but the mutex, the crash point
    // and the file write are paid once.
    std::string reg_framed;
    std::string seg_framed;
    std::string payload;
    bool marks = false;
    for (size_t i = 0; i < n; ++i) {
      const bool reg = IsRegistration(records[i].type);
      FrameRecord(records[i], &payload, reg ? &reg_framed : &seg_framed);
      marks |= records[i].type == WalRecordType::kFlushMark;
    }
    if (!reg_framed.empty()) TU_RETURN_IF_ERROR(WriteLocked(&reg_, reg_framed));
    if (!seg_framed.empty()) {
      TU_RETURN_IF_ERROR(WriteLocked(&active_, seg_framed));
    }
    for (size_t i = 0; i < n; ++i) {
      const WalRecord& r = records[i];
      if (IsSample(r.type)) {
        uint64_t& seq = active_max_seq_[r.id];
        seq = std::max(seq, r.seq);
      } else if (r.type == WalRecordType::kFlushMark) {
        uint64_t& seq = flushed_[r.id];
        seq = std::max(seq, r.seq);
      }
    }
    // The records are appended either way: a failed seal only latches the
    // poison, which the next call reports.
    if (active_.bytes >= segment_bytes_) SealLocked();
    if (marks) CollectCoveredLocked(&doomed);
    PublishLocked();
  }
  DeleteSegments(doomed);
  return Status::OK();
}

Status WalWriter::SyncLocked(LogFile* log) {
  if (log->synced == log->bytes) return Status::OK();  // nothing new
  Status s = log->file->Sync();
  if (!s.ok()) {
    log->failed = true;
    poison_ = s;
    return s;
  }
  log->synced = log->bytes;
  log->pending_tail.clear();
  return s;
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  TU_RETURN_IF_ERROR(SyncLocked(&reg_));
  return SyncLocked(&active_);
}

Status WalWriter::Seal() {
  std::vector<std::string> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!poison_.ok()) return poison_;
    TU_RETURN_IF_ERROR(SyncLocked(&reg_));
    if (active_.bytes == 0) return Status::OK();  // nothing to seal
    TU_RETURN_IF_ERROR(SealLocked());
    CollectCoveredLocked(&doomed);
    PublishLocked();
  }
  DeleteSegments(doomed);
  return Status::OK();
}

Status WalWriter::SealLocked() {
  // Registrations first: a sealed segment's samples must never outlive
  // the records that name their series.
  TU_RETURN_IF_ERROR(SyncLocked(&reg_));
  TU_RETURN_IF_ERROR(SyncLocked(&active_));
  Status s = active_.file->Close();
  if (!s.ok()) {
    active_.failed = true;
    poison_ = s;
    return s;
  }
  // Crash here = the segment is durable and closed but its successor does
  // not exist yet; the next open replays it like any sealed segment.
  cloud::CrashPoint(store_->fault(), "wal.segment.seal");
  SealedSegment seg;
  seg.number = active_number_;
  seg.bytes = active_.bytes;
  seg.max_seq.assign(active_max_seq_.begin(), active_max_seq_.end());
  sealed_.push_back(std::move(seg));
  active_max_seq_.clear();
  return StartSegmentLocked(active_number_ + 1);
}

Status WalWriter::StartSegmentLocked(uint64_t number) {
  active_ = LogFile{};
  active_.name = WalSegmentName(prefix_, number);
  active_number_ = number;
  Status s = store_->NewWritableFile(active_.name, &active_.file);
  if (!s.ok()) {
    active_.failed = true;  // Rotate() creates it
    poison_ = s;
  }
  return s;
}

Status WalWriter::poison() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poison_;
}

Status WalWriter::Rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (reg_.failed) TU_RETURN_IF_ERROR(RebuildLocked(&reg_));
  if (active_.failed) TU_RETURN_IF_ERROR(RebuildLocked(&active_));
  poison_ = Status::OK();
  PublishLocked();
  return Status::OK();
}

Status WalWriter::RebuildLocked(LogFile* log) {
  // Rebuild from the synced prefix on disk + the in-memory tail. The
  // unsynced on-disk region is deliberately ignored: after a failed fsync
  // those pages' durability is unknowable, and the in-memory copy is
  // authoritative for every record appended since the last good sync.
  std::string disk;
  Status rs = store_->ReadFileToString(log->name, &disk);
  if (!rs.ok() && !rs.IsNotFound()) return rs;
  std::string content = disk.substr(0, std::min<size_t>(log->synced,
                                                        disk.size()));
  content += log->pending_tail;

  // The .rot handle stays open across the rename and becomes the file's
  // append handle; the poisoned fd is abandoned, never fsynced again.
  const std::string tmp = log->name + ".rot";
  std::unique_ptr<cloud::WritableFile> fresh;
  TU_RETURN_IF_ERROR(store_->NewWritableFile(tmp, &fresh));
  if (!content.empty()) {
    TU_RETURN_IF_ERROR(fresh->Append(content));
    TU_RETURN_IF_ERROR(fresh->Sync());
  }
  TU_RETURN_IF_ERROR(store_->RenameFile(tmp, log->name));
  log->file = std::move(fresh);
  log->bytes = log->synced = content.size();
  log->pending_tail.clear();
  log->failed = false;
  return Status::OK();
}

void WalWriter::CollectCoveredLocked(std::vector<std::string>* doomed) {
  // Oldest first, and only a prefix: a flush mark is logged after the
  // samples it covers, so an uncovered segment pins every later one.
  while (!sealed_.empty()) {
    SealedSegment& seg = sealed_.front();
    // Coverage only grows, so the walk resumes where it last stopped.
    while (seg.covered < seg.max_seq.size()) {
      const auto& [id, seq] = seg.max_seq[seg.covered];
      auto it = flushed_.find(id);
      if (it == flushed_.end() || it->second < seq) return;
      ++seg.covered;
    }
    doomed->push_back(WalSegmentName(prefix_, seg.number));
    sealed_.pop_front();
  }
}

void WalWriter::DeleteSegments(const std::vector<std::string>& doomed) {
  // Outside mu_: appenders never wait on an unlink. A failed delete leaves
  // a covered segment the next open drops again.
  for (const std::string& name : doomed) store_->DeleteFile(name);
  if (!doomed.empty()) {
    segments_dropped_.fetch_add(doomed.size(), std::memory_order_relaxed);
  }
}

std::vector<std::pair<uint64_t, uint64_t>> WalWriter::TakePinningIds() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, uint64_t>> ids;
  if (!pinning_due_.load(std::memory_order_relaxed)) return ids;
  const SealedSegment& oldest = sealed_.front();
  for (size_t i = oldest.covered; i < oldest.max_seq.size(); ++i) {
    const auto& [id, seq] = oldest.max_seq[i];
    auto it = flushed_.find(id);
    if (it == flushed_.end() || it->second < seq) ids.emplace_back(id, seq);
  }
  relieved_number_ = oldest.number;
  PublishLocked();
  return ids;
}

void WalWriter::PublishLocked() {
  uint64_t segment_bytes = active_.bytes;
  for (const SealedSegment& seg : sealed_) segment_bytes += seg.bytes;
  live_segments_.store(sealed_.size() + 1, std::memory_order_relaxed);
  live_bytes_.store(reg_.bytes + segment_bytes, std::memory_order_relaxed);
  // The registration log is left out: it grows with the series count, not
  // with what pins the segments.
  pinning_due_.store(segment_bytes > kPinningSegments * segment_bytes_ &&
                         !sealed_.empty() &&
                         sealed_.front().number != relieved_number_,
                     std::memory_order_relaxed);
}

std::string WalReplayStats::ToString() const {
  std::ostringstream os;
  os << "applied=" << records_applied;
  if (Clean()) {
    os << (torn_tail ? " torn_tail" : " clean_eof");
  } else {
    os << " corruption_at=" << corrupt_file << ":" << corruption_offset
       << " dropped_records=" << records_dropped
       << " dropped_bytes=" << bytes_dropped;
  }
  return os.str();
}

Status ReplayWal(cloud::BlockStore* store, const std::string& prefix,
                 const std::function<Status(const WalRecord&)>& fn,
                 WalReplayStats* stats) {
  WalReplayStats local;
  std::vector<uint64_t> numbers;
  TU_RETURN_IF_ERROR(ListWalSegments(store, prefix, &numbers));
  std::vector<std::string> files = {RegistrationLogName(prefix)};
  for (uint64_t n : numbers) files.push_back(WalSegmentName(prefix, n));
  return ScanFiles(
      store, files, [&](size_t, const WalRecord& r) { return fn(r); },
      stats != nullptr ? stats : &local, nullptr);
}

}  // namespace tu::core
