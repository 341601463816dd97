#include "core/wal.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/timeunion_db.h"

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/mmap_file.h"
#include "test_dir.h"
#include "write_all.h"

namespace tu::core {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = TestDir("wal");
    RemoveDirRecursive(ws_);
    store_ = std::make_unique<cloud::BlockStore>(
        ws_, cloud::TierSimOptions::Instant());
  }
  void TearDown() override {
    store_.reset();
    RemoveDirRecursive(ws_);
  }

  static std::string Segment(uint64_t number) {
    return WalSegmentName("WAL", number);
  }
  std::vector<uint64_t> Segments() {
    std::vector<uint64_t> numbers;
    EXPECT_TRUE(ListWalSegments(store_.get(), "WAL", &numbers).ok());
    return numbers;
  }

  std::vector<WalRecord> Replay() {
    std::vector<WalRecord> records;
    stats_ = WalReplayStats{};
    EXPECT_TRUE(ReplayWal(store_.get(), "WAL",
                          [&](const WalRecord& r) {
                            records.push_back(r);
                            return Status::OK();
                          },
                          &stats_)
                    .ok());
    return records;
  }

  std::string ws_;
  std::unique_ptr<cloud::BlockStore> store_;
  WalReplayStats stats_;
};

TEST_F(WalTest, AllRecordTypesRoundTrip) {
  WalWriter writer(store_.get(), "WAL");
  ASSERT_TRUE(writer.Open().ok());

  WalRecord reg;
  reg.type = WalRecordType::kRegisterSeries;
  reg.id = 7;
  reg.labels = {{"metric", "cpu"}, {"host", "a"}};
  ASSERT_TRUE(writer.Append(reg).ok());

  WalRecord greg;
  greg.type = WalRecordType::kRegisterGroup;
  greg.id = 8;
  greg.labels = {{"hostname", "h1"}};
  ASSERT_TRUE(writer.Append(greg).ok());

  WalRecord member;
  member.type = WalRecordType::kRegisterMember;
  member.id = 8;
  member.slot = 3;
  member.labels = {{"metric", "mem"}};
  ASSERT_TRUE(writer.Append(member).ok());

  WalRecord sample;
  sample.type = WalRecordType::kSample;
  sample.id = 7;
  sample.seq = 42;
  sample.ts = -123456;  // negative timestamps must survive
  sample.value = 3.25;
  ASSERT_TRUE(writer.Append(sample).ok());

  WalRecord gsample;
  gsample.type = WalRecordType::kGroupSample;
  gsample.id = 8;
  gsample.seq = 43;
  gsample.ts = 1000;
  gsample.slots = {0, 3};
  gsample.values = {1.5, 2.5};
  ASSERT_TRUE(writer.Append(gsample).ok());

  WalRecord mark;
  mark.type = WalRecordType::kFlushMark;
  mark.id = 7;
  mark.seq = 42;
  ASSERT_TRUE(writer.Append(mark).ok());
  ASSERT_TRUE(writer.Sync().ok());

  const auto records = Replay();
  ASSERT_EQ(records.size(), 6u);
  // An intact log replays clean: boundary EOF, nothing dropped.
  EXPECT_TRUE(stats_.Clean());
  EXPECT_TRUE(stats_.clean_eof);
  EXPECT_FALSE(stats_.torn_tail);
  EXPECT_EQ(stats_.records_applied, 6u);
  EXPECT_EQ(stats_.records_dropped, 0u);
  EXPECT_EQ(records[0].type, WalRecordType::kRegisterSeries);
  EXPECT_EQ(records[0].labels.size(), 2u);
  EXPECT_EQ(records[2].slot, 3u);
  EXPECT_EQ(records[3].ts, -123456);
  EXPECT_EQ(records[3].value, 3.25);
  EXPECT_EQ(records[4].slots, (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(records[4].values, (std::vector<double>{1.5, 2.5}));
  EXPECT_EQ(records[5].type, WalRecordType::kFlushMark);
}

TEST_F(WalTest, TruncatedTailToleratedAtReplay) {
  WalWriter writer(store_.get(), "WAL");
  ASSERT_TRUE(writer.Open().ok());
  WalRecord sample;
  sample.type = WalRecordType::kSample;
  sample.id = 1;
  sample.seq = 1;
  sample.ts = 10;
  sample.value = 1.0;
  ASSERT_TRUE(writer.Append(sample).ok());
  sample.seq = 2;
  ASSERT_TRUE(writer.Append(sample).ok());
  ASSERT_TRUE(writer.Sync().ok());

  // Chop bytes off the tail (torn final write).
  std::string contents;
  ASSERT_TRUE(store_->ReadFileToString(Segment(1), &contents).ok());
  contents.resize(contents.size() - 5);
  ASSERT_TRUE(store_->WriteStringToFile(Segment(1), contents).ok());

  const auto records = Replay();
  EXPECT_EQ(records.size(), 1u);  // the intact record survives
  // A torn tail is the benign crash-mid-append shape, not corruption.
  EXPECT_TRUE(stats_.Clean());
  EXPECT_TRUE(stats_.torn_tail);
  EXPECT_FALSE(stats_.clean_eof);
  EXPECT_EQ(stats_.records_applied, 1u);
  EXPECT_EQ(stats_.records_dropped, 0u);
}

TEST_F(WalTest, CorruptRecordStopsReplay) {
  WalWriter writer(store_.get(), "WAL");
  ASSERT_TRUE(writer.Open().ok());
  WalRecord sample;
  sample.type = WalRecordType::kSample;
  sample.id = 1;
  sample.seq = 1;
  sample.ts = 10;
  sample.value = 1.0;
  ASSERT_TRUE(writer.Append(sample).ok());
  ASSERT_TRUE(writer.Append(sample).ok());
  ASSERT_TRUE(writer.Sync().ok());

  std::string contents;
  ASSERT_TRUE(store_->ReadFileToString(Segment(1), &contents).ok());
  contents[10] ^= 0x42;  // flip a payload byte of record 1
  ASSERT_TRUE(store_->WriteStringToFile(Segment(1), contents).ok());
  EXPECT_TRUE(Replay().empty());  // CRC catches it, replay stops
  // Mid-log corruption: first frame bad, so everything was dropped —
  // including the second record, which still frames+checksums correctly.
  EXPECT_FALSE(stats_.Clean());
  EXPECT_EQ(stats_.corruption_offset, 0u);
  EXPECT_EQ(stats_.records_applied, 0u);
  EXPECT_EQ(stats_.records_dropped, 1u);
  EXPECT_EQ(stats_.bytes_dropped, contents.size());
  EXPECT_FALSE(stats_.torn_tail);
}

TEST_F(WalTest, MidLogCorruptionStatsLocateTheDamage) {
  WalWriter writer(store_.get(), "WAL");
  ASSERT_TRUE(writer.Open().ok());
  WalRecord sample;
  sample.type = WalRecordType::kSample;
  sample.id = 1;
  sample.value = 1.0;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    sample.seq = seq;
    sample.ts = static_cast<int64_t>(10 * seq);
    ASSERT_TRUE(writer.Append(sample).ok());
  }
  ASSERT_TRUE(writer.Sync().ok());

  std::string contents;
  ASSERT_TRUE(store_->ReadFileToString(Segment(1), &contents).ok());
  const uint64_t frame_size = contents.size() / 3;  // identical records
  contents[frame_size + 9] ^= 0x42;  // corrupt record 2's payload
  ASSERT_TRUE(store_->WriteStringToFile(Segment(1), contents).ok());

  const auto records = Replay();
  ASSERT_EQ(records.size(), 1u);  // record 1 applied
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_FALSE(stats_.Clean());
  EXPECT_EQ(stats_.records_applied, 1u);
  EXPECT_EQ(stats_.corruption_offset, frame_size);
  EXPECT_EQ(stats_.bytes_dropped, contents.size() - frame_size);
  EXPECT_EQ(stats_.records_dropped, 1u);  // record 3, intact but untrusted
  // The human-readable summary names the damage.
  EXPECT_NE(stats_.ToString().find("corruption_at="), std::string::npos);
}

WalRecord Sample(uint64_t id, uint64_t seq) {
  WalRecord r;
  r.type = WalRecordType::kSample;
  r.id = id;
  r.seq = seq;
  r.ts = static_cast<int64_t>(seq) * 10;
  r.value = 1.0 * static_cast<double>(seq);
  return r;
}

WalRecord Mark(uint64_t id, uint64_t seq) {
  WalRecord r;
  r.type = WalRecordType::kFlushMark;
  r.id = id;
  r.seq = seq;
  return r;
}

TEST_F(WalTest, SegmentDroppedOnlyOnceCoveredAndOldestFirst) {
  WalWriter writer(store_.get(), "WAL");
  ASSERT_TRUE(writer.Open().ok());
  // Segment 1: id 1 seqs 1..3, id 2 seqs 1..2. Segment 2: id 1 seqs 4..5.
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(writer.Append(Sample(1, seq)).ok());
  }
  ASSERT_TRUE(writer.Append(Sample(2, 1)).ok());
  ASSERT_TRUE(writer.Append(Sample(2, 2)).ok());
  ASSERT_TRUE(writer.Seal().ok());
  ASSERT_TRUE(writer.Append(Sample(1, 4)).ok());
  ASSERT_TRUE(writer.Append(Sample(1, 5)).ok());
  ASSERT_TRUE(writer.Seal().ok());
  EXPECT_EQ(Segments(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(writer.live_segments(), 3u);

  // Id 1 is covered everywhere, which covers segment 2 -- but segment 1
  // still holds id 2, and only the oldest segment may go.
  ASSERT_TRUE(writer.Append(Mark(1, 5)).ok());
  EXPECT_EQ(Segments(), (std::vector<uint64_t>{1, 2, 3}));
  // A mark below id 2's newest seq in segment 1 does not cover it.
  ASSERT_TRUE(writer.Append(Mark(2, 1)).ok());
  EXPECT_EQ(Segments(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(writer.segments_dropped(), 0u);

  // Now segment 1 is covered, and segment 2 goes right after it.
  ASSERT_TRUE(writer.Append(Mark(2, 2)).ok());
  EXPECT_EQ(Segments(), (std::vector<uint64_t>{3}));
  EXPECT_EQ(writer.segments_dropped(), 2u);
  EXPECT_EQ(writer.live_segments(), 1u);

  // The active segment is never dropped, covered or not.
  ASSERT_TRUE(writer.Append(Sample(1, 6)).ok());
  ASSERT_TRUE(writer.Append(Mark(1, 6)).ok());
  EXPECT_EQ(Segments(), (std::vector<uint64_t>{3}));

  // A reopen rebuilds both tables from the live segment: segment 3 holds
  // only covered samples, so it is dropped and a fresh one starts.
  WalWriter reopened(store_.get(), "WAL");
  std::vector<WalRecord> applied;
  ASSERT_TRUE(reopened
                  .Open([&](const WalRecord& r) {
                    applied.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(Segments(), (std::vector<uint64_t>{4}));
  for (const WalRecord& r : applied) {
    EXPECT_EQ(r.type, WalRecordType::kFlushMark);  // no sample is live
  }
}

TEST_F(WalTest, RegistrationsSurviveDroppedSegmentAndReopen) {
  {
    WalWriter writer(store_.get(), "WAL");
    ASSERT_TRUE(writer.Open().ok());
    WalRecord reg;
    reg.type = WalRecordType::kRegisterSeries;
    reg.id = 1;
    reg.labels = {{"metric", "cpu"}};
    WalRecord greg;
    greg.type = WalRecordType::kRegisterGroup;
    greg.id = 2;
    greg.labels = {{"host", "h1"}};
    WalRecord member;
    member.type = WalRecordType::kRegisterMember;
    member.id = 2;
    member.slot = 0;
    member.labels = {{"metric", "mem"}};
    ASSERT_TRUE(writer.Append(reg).ok());
    ASSERT_TRUE(writer.Append(greg).ok());
    ASSERT_TRUE(writer.Append(member).ok());
    ASSERT_TRUE(writer.Append(Sample(1, 1)).ok());
    WalRecord row;
    row.type = WalRecordType::kGroupSample;
    row.id = 2;
    row.seq = 1;
    row.slots = {0};
    row.values = {2.0};
    ASSERT_TRUE(writer.Append(row).ok());
    ASSERT_TRUE(writer.Seal().ok());
    const WalRecord marks[] = {Mark(1, 1), Mark(2, 1)};
    ASSERT_TRUE(writer.AppendBatch(marks, 2).ok());
    ASSERT_EQ(writer.segments_dropped(), 1u);  // the samples' segment
    ASSERT_TRUE(writer.Sync().ok());
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    WalWriter writer(store_.get(), "WAL");
    std::vector<WalRecord> regs;
    ASSERT_TRUE(writer
                    .Open([&](const WalRecord& r) {
                      if (r.type != WalRecordType::kFlushMark) {
                        regs.push_back(r);
                      }
                      return Status::OK();
                    })
                    .ok());
    ASSERT_EQ(regs.size(), 3u) << "reopen " << reopen;
    EXPECT_EQ(regs[0].type, WalRecordType::kRegisterSeries);
    EXPECT_EQ(regs[0].labels, (index::Labels{{"metric", "cpu"}}));
    EXPECT_EQ(regs[1].type, WalRecordType::kRegisterGroup);
    EXPECT_EQ(regs[1].id, 2u);
    EXPECT_EQ(regs[2].type, WalRecordType::kRegisterMember);
    EXPECT_EQ(regs[2].labels, (index::Labels{{"metric", "mem"}}));
  }
}

TEST_F(WalTest, CorruptFrameInMiddleSegmentStopsReplay) {
  {
    WalWriter writer(store_.get(), "WAL");
    ASSERT_TRUE(writer.Open().ok());
    for (uint64_t seq = 1; seq <= 6; ++seq) {
      ASSERT_TRUE(writer.Append(Sample(1, seq)).ok());
      if (seq % 2 == 0) ASSERT_TRUE(writer.Seal().ok());
    }
  }
  ASSERT_EQ(Segments(), (std::vector<uint64_t>{1, 2, 3, 4}));
  std::string contents;
  ASSERT_TRUE(store_->ReadFileToString(Segment(2), &contents).ok());
  contents[10] ^= 0x42;  // record seq 3's payload
  ASSERT_TRUE(store_->WriteStringToFile(Segment(2), contents).ok());

  const auto records = Replay();
  ASSERT_EQ(records.size(), 2u);  // segment 1
  EXPECT_FALSE(stats_.Clean());
  EXPECT_EQ(stats_.corrupt_file, Segment(2));
  EXPECT_EQ(stats_.corruption_offset, 0u);
  // Seq 4 (after the bad frame) plus segment 3's two records: intact but
  // untrusted. Segment 4 is the empty active segment.
  EXPECT_EQ(stats_.records_dropped, 3u);

  // The writer's open salvages the same prefix and sets the damage aside,
  // so records appended afterwards replay on the next open.
  {
    WalWriter writer(store_.get(), "WAL");
    std::vector<uint64_t> seqs;
    WalReplayStats stats;
    ASSERT_TRUE(writer
                    .Open(
                        [&](const WalRecord& r) {
                          if (r.type == WalRecordType::kSample) {
                            seqs.push_back(r.seq);
                          }
                          return Status::OK();
                        },
                        &stats)
                    .ok());
    EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2}));
    EXPECT_FALSE(stats.Clean());
    EXPECT_EQ(stats.records_dropped, 3u);
    ASSERT_TRUE(writer.Append(Sample(1, 7)).ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  EXPECT_TRUE(store_->FileExists(Segment(2) + ".bad").ok());
  EXPECT_TRUE(store_->FileExists(Segment(3) + ".bad").ok());
  WalWriter writer(store_.get(), "WAL");
  std::vector<uint64_t> seqs;
  WalReplayStats stats;
  ASSERT_TRUE(writer
                  .Open(
                      [&](const WalRecord& r) {
                        if (r.type == WalRecordType::kSample) {
                          seqs.push_back(r.seq);
                        }
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_TRUE(stats.Clean());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 7}));
}

// A long WAL-on ingest with tiny segments and inline memtable flushes: the
// flush marks keep dropping whole segments, so the live log stays a small,
// bounded fraction of what was written, and after Flush() only the fresh
// active segment is left. Every sample survives a reopen.
TEST(WalDbTest, LongIngestKeepsLiveSegmentsBounded) {
  const std::string ws = TestDir("wal_bounded");
  RemoveDirRecursive(ws);
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  opts.wal_segment_bytes = 4 << 10;
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 8 << 10;
  opts.lsm.l0_partition_ms = 1000;
  opts.lsm.l2_partition_ms = 4000;
  opts.lsm.partition_lower_bound_ms = 1000;
  opts.lsm.l0_partition_trigger = 1;

  constexpr int kSeries = 20;
  constexpr int kSteps = 1000;
  uint64_t max_live_bytes = 0;
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    std::vector<uint64_t> refs(kSeries);
    for (int s = 0; s < kSeries; ++s) {
      ASSERT_TRUE(db->RegisterSeries({{"metric", "m" + std::to_string(s)}},
                                     &refs[s])
                      .ok());
    }
    WriteBatch batch;
    for (int step = 0; step < kSteps; ++step) {
      batch.Clear();
      for (int s = 0; s < kSeries; ++s) {
        batch.AddSample(refs[s], step * 250LL, 1.0 * step + s);
      }
      WriteResult result;
      ASSERT_TRUE(db->Write(batch, &result).ok());
      ASSERT_EQ(result.appended, static_cast<uint64_t>(kSeries));
      max_live_bytes = std::max<uint64_t>(
          max_live_bytes, db->Metrics().GaugeOr0("wal.live_bytes"));
    }
    const obs::MetricsSnapshot before = db->Metrics();
    EXPECT_GT(before.CounterOr0("wal.segments_dropped"), 50u);
    // ~20k samples x ~29 B were logged; the live log never held more than
    // a few segments of them.
    EXPECT_LT(max_live_bytes, 64u << 10);

    ASSERT_TRUE(db->Flush().ok());
    const obs::MetricsSnapshot after = db->Metrics();
    EXPECT_EQ(after.GaugeOr0("wal.live_segments"), 1);
    std::vector<uint64_t> segments;
    ASSERT_TRUE(ListWalSegments(&db->env().fast(), "WAL", &segments).ok());
    EXPECT_EQ(segments.size(), 1u);
  }
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(db->NumSeries(), static_cast<uint64_t>(kSeries));
  QueryResult result;
  ASSERT_TRUE(db->Query(query::ReadRequest::Range(
                            {index::TagMatcher::Equal("metric", "m7")}, 0,
                            kSteps * 250LL),
                        &result)
                  .ok());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].samples.size(), static_cast<size_t>(kSteps));
  db.reset();
  RemoveDirRecursive(ws);
}

TEST_F(WalTest, ReopenPreservesContents) {
  {
    WalWriter writer(store_.get(), "WAL");
    ASSERT_TRUE(writer.Open().ok());
    WalRecord sample;
    sample.type = WalRecordType::kSample;
    sample.id = 1;
    sample.seq = 1;
    sample.ts = 5;
    sample.value = 9.0;
    ASSERT_TRUE(writer.Append(sample).ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  WalWriter writer(store_.get(), "WAL");
  ASSERT_TRUE(writer.Open().ok());
  WalRecord sample;
  sample.type = WalRecordType::kSample;
  sample.id = 1;
  sample.seq = 2;
  sample.ts = 6;
  sample.value = 10.0;
  ASSERT_TRUE(writer.Append(sample).ok());
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(Replay().size(), 2u);
}

// Flush marks of an earlier process outlive its restart while an
// uncovered sample pins their segment. The reopened heads must number new
// samples after those marks, or the next replay takes them for flushed.
TEST(WalDbTest, SamplesAfterReopenAreNotCoveredByOldMarks) {
  const std::string ws = TestDir("wal_restore_seq");
  RemoveDirRecursive(ws);
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  opts.samples_per_chunk = 4;
  opts.lsm.memtable_bytes = 4 << 10;
  const auto count = [](TimeUnionDB* db, const std::string& name) {
    QueryResult result;
    EXPECT_TRUE(db->Query(query::ReadRequest::Range(
                              {index::TagMatcher::Equal("metric", name)}, 0,
                              1 << 30),
                          &result)
                    .ok());
    return result.empty() ? size_t{0} : result[0].samples.size();
  };
  const auto write = [](TimeUnionDB* db, const std::string& name, int from,
                        int to) {
    WriteBatch batch;
    for (int i = from; i < to; ++i) {
      batch.AddSample({{"metric", name}}, i * 1000LL, 1.0 * i);
    }
    WriteResult result;
    ASSERT_TRUE(db->Write(batch, &result).ok());
    ASSERT_TRUE(db->SyncWal().ok());
  };
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    write(db.get(), "pin", 0, 1);  // never flushed: pins the first segment
    write(db.get(), "busy", 0, 400);
  }
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    ASSERT_EQ(count(db.get(), "busy"), 400u);
    write(db.get(), "busy", 400, 410);
  }
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(count(db.get(), "pin"), 1u);
  EXPECT_EQ(count(db.get(), "busy"), 410u);
  db.reset();
  RemoveDirRecursive(ws);
}

// Retention retires a head whose open chunk never reached the LSM; its
// samples must neither pin their segment nor come back on replay.
TEST(WalDbTest, RetiredSeriesDoesNotPinSegments) {
  const std::string ws = TestDir("wal_retired");
  RemoveDirRecursive(ws);
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  const auto count = [](TimeUnionDB* db, const std::string& name) {
    QueryResult result;
    EXPECT_TRUE(db->Query(query::ReadRequest::Range(
                              {index::TagMatcher::Equal("metric", name)}, 0,
                              1 << 30),
                          &result)
                    .ok());
    return result.empty() ? size_t{0} : result[0].samples.size();
  };
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    WriteBatch batch;
    for (int i = 0; i < 10; ++i) batch.AddSample({{"metric", "old"}}, i, 1.0);
    ASSERT_TRUE(WriteAll(db.get(), batch).ok());
    ASSERT_TRUE(db->ApplyRetention(1000).ok());
    batch.Clear();
    batch.AddSample({{"metric", "new"}}, 5000, 2.0);
    ASSERT_TRUE(WriteAll(db.get(), batch).ok());
    ASSERT_TRUE(db->Flush().ok());
    EXPECT_EQ(db->Metrics().GaugeOr0("wal.live_segments"), 1);
  }
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(count(db.get(), "old"), 0u);
  EXPECT_EQ(count(db.get(), "new"), 1u);
  db.reset();
  RemoveDirRecursive(ws);
}

size_t CountSamples(TimeUnionDB* db, const std::string& name) {
  QueryResult result;
  EXPECT_TRUE(db->Query(query::ReadRequest::Range(
                            {index::TagMatcher::Equal("metric", name)}, 0,
                            1 << 30),
                        &result)
                  .ok());
  return result.empty() ? size_t{0} : result[0].samples.size();
}

DBOptions TinySegmentOptions(const std::string& ws) {
  DBOptions opts;
  opts.workspace = ws;
  opts.env_options = cloud::TieredEnvOptions::Instant();
  opts.enable_wal = true;
  opts.wal_segment_bytes = 4 << 10;
  opts.samples_per_chunk = 8;
  opts.lsm.memtable_bytes = 8 << 10;
  return opts;
}

// One series reports a few samples and stops, so its chunk stays open and
// its samples sit in the oldest segment; the others keep writing and never
// call Flush(). Once the live segments pass a few segments' worth of
// bytes, the DB closes the stopped series' chunk, its flush mark follows,
// and the log stays bounded. Every sample survives a reopen.
TEST(WalDbTest, StoppedSeriesDoesNotPinLiveLog) {
  const std::string ws = TestDir("wal_stopped_series");
  RemoveDirRecursive(ws);
  const DBOptions opts = TinySegmentOptions(ws);
  constexpr int kSeries = 20;
  constexpr int kSteps = 1000;
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    WriteBatch batch;
    for (int step = 0; step < 3; ++step) {
      batch.AddSample({{"metric", "stopped"}}, step * 250LL, 1.0 * step);
    }
    ASSERT_TRUE(WriteAll(db.get(), batch).ok());
    uint64_t max_live_bytes = 0;
    for (int step = 0; step < kSteps; ++step) {
      batch.Clear();
      for (int s = 0; s < kSeries; ++s) {
        batch.AddSample({{"metric", "m" + std::to_string(s)}}, step * 250LL,
                        1.0 * step + s);
      }
      ASSERT_TRUE(WriteAll(db.get(), batch).ok());
      max_live_bytes = std::max<uint64_t>(
          max_live_bytes, db->Metrics().GaugeOr0("wal.live_bytes"));
    }
    // ~20k samples x ~29 B (~570 KiB) were logged; the live log stayed
    // near the pinning limit (16 KiB of segments) plus the memtable's lag.
    EXPECT_LT(max_live_bytes, 48u << 10);
    EXPECT_GT(db->Metrics().CounterOr0("wal.segments_dropped"), 50u);
    ASSERT_TRUE(db->SyncWal().ok());
  }
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(CountSamples(db.get(), "stopped"), 3u);
  EXPECT_EQ(CountSamples(db.get(), "m7"), static_cast<size_t>(kSteps));
  db.reset();
  RemoveDirRecursive(ws);
}

std::string Frame(const WalRecord& record) {
  std::string payload;
  EncodeWalRecord(record, &payload);
  std::string framed;
  PutFixed32(&framed,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutFixed32(&framed, static_cast<uint32_t>(payload.size()));
  return framed + payload;
}

// A workspace written before the log was segmented holds one `WAL` file.
// Opening it splits the file once: its registrations and unflushed samples
// come back, and new series never reuse its ids.
TEST(WalDbTest, OpensLegacySingleFileLog) {
  const std::string ws = TestDir("wal_legacy");
  RemoveDirRecursive(ws);
  const DBOptions opts = TinySegmentOptions(ws);
  std::string fast_root;
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    fast_root = db->env().fast().root();
  }
  {
    cloud::BlockStore store(fast_root, cloud::TierSimOptions::Instant());
    std::vector<uint64_t> numbers;
    ASSERT_TRUE(ListWalSegments(&store, "WAL", &numbers).ok());
    for (uint64_t n : numbers) {
      ASSERT_TRUE(store.DeleteFile(WalSegmentName("WAL", n)).ok());
    }
    ASSERT_TRUE(store.DeleteFile("WAL.reg").ok());
    WalRecord reg;
    reg.type = WalRecordType::kRegisterSeries;
    reg.id = 1;
    reg.labels = {{"metric", "legacy"}};
    std::string legacy = Frame(reg);
    for (uint64_t seq = 1; seq <= 5; ++seq) legacy += Frame(Sample(1, seq));
    ASSERT_TRUE(store.WriteStringToFile("WAL", legacy).ok());
  }
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    EXPECT_EQ(db->NumSeries(), 1u);
    EXPECT_EQ(CountSamples(db.get(), "legacy"), 5u);
    EXPECT_EQ(db->env().fast().FileExists("WAL").code(),
              Status::Code::kNotFound);
    uint64_t ref = 0;
    ASSERT_TRUE(db->RegisterSeries({{"metric", "fresh"}}, &ref).ok());
    EXPECT_NE(ref, 1u);
    WriteBatch batch;
    batch.AddSample(ref, 100, 1.0);
    ASSERT_TRUE(WriteAll(db.get(), batch).ok());
    ASSERT_TRUE(db->SyncWal().ok());
  }
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(CountSamples(db.get(), "legacy"), 5u);
  EXPECT_EQ(CountSamples(db.get(), "fresh"), 1u);
  db.reset();
  RemoveDirRecursive(ws);
}

// Sample frames can outlive the unsynced registration frames before them
// (a power loss). Such samples were never acknowledged as durable: the
// open skips them, counts them as dropped, retires their id and keeps
// every other series.
TEST(WalDbTest, SampleOfUnregisteredIdIsSkipped) {
  const std::string ws = TestDir("wal_unregistered");
  RemoveDirRecursive(ws);
  const DBOptions opts = TinySegmentOptions(ws);
  std::string fast_root;
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    WriteBatch batch;
    for (int i = 0; i < 5; ++i) batch.AddSample({{"metric", "kept"}}, i, 1.0);
    ASSERT_TRUE(WriteAll(db.get(), batch).ok());
    ASSERT_TRUE(db->SyncWal().ok());
    fast_root = db->env().fast().root();
  }
  {
    cloud::BlockStore store(fast_root, cloud::TierSimOptions::Instant());
    WalWriter writer(&store, "WAL");
    ASSERT_TRUE(writer.Open().ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(writer.Append(Sample(99, seq)).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  EXPECT_EQ(db->recovery_report().wal.records_dropped, 3u);
  EXPECT_EQ(CountSamples(db.get(), "kept"), 5u);
  uint64_t ref = 0;
  ASSERT_TRUE(db->RegisterSeries({{"metric", "fresh"}}, &ref).ok());
  EXPECT_GT(ref, 99u);
  // The skipped samples' flush mark lets their segment go.
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->Metrics().GaugeOr0("wal.live_segments"), 1);
  db.reset();
  RemoveDirRecursive(ws);
}

// Damage in the registration log costs the registrations after it and the
// samples of those series only: the segments stay live, and a series
// registered before the damage keeps its unflushed samples.
TEST(WalDbTest, RegistrationLogDamageKeepsEarlierSeries) {
  const std::string ws = TestDir("wal_reg_damage");
  RemoveDirRecursive(ws);
  const DBOptions opts = TinySegmentOptions(ws);
  std::string fast_root;
  {
    std::unique_ptr<TimeUnionDB> db;
    ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
    uint64_t first = 0;
    uint64_t second = 0;
    ASSERT_TRUE(db->RegisterSeries({{"metric", "first"}}, &first).ok());
    ASSERT_TRUE(db->RegisterSeries({{"metric", "second"}}, &second).ok());
    WriteBatch batch;
    for (int i = 0; i < 5; ++i) {
      batch.AddSample(first, i, 1.0);
      batch.AddSample(second, i, 2.0);
    }
    ASSERT_TRUE(WriteAll(db.get(), batch).ok());
    ASSERT_TRUE(db->SyncWal().ok());
    fast_root = db->env().fast().root();
  }
  {
    // The last byte of the registration log is in the second series'
    // registration frame.
    cloud::BlockStore store(fast_root, cloud::TierSimOptions::Instant());
    uint64_t size = 0;
    ASSERT_TRUE(store.GetFileSize("WAL.reg", &size).ok());
    ASSERT_TRUE(store.CorruptFileAtRest("WAL.reg", size - 1).ok());
  }
  std::unique_ptr<TimeUnionDB> db;
  ASSERT_TRUE(TimeUnionDB::Open(opts, &db).ok());
  const WalReplayStats& stats = db->recovery_report().wal;
  EXPECT_FALSE(stats.Clean());
  EXPECT_EQ(stats.corrupt_file, "WAL.reg");
  EXPECT_EQ(stats.records_dropped, 5u);  // the second series' samples
  EXPECT_EQ(db->NumSeries(), 1u);
  EXPECT_EQ(CountSamples(db.get(), "first"), 5u);
  EXPECT_EQ(CountSamples(db.get(), "second"), 0u);
  db.reset();
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu::core
