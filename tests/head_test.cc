#include "mem/head.h"

#include <gtest/gtest.h>

#include <set>

#include "mem/chunk_array.h"
#include "util/mmap_file.h"
#include "util/random.h"
#include "test_dir.h"

namespace tu::mem {
namespace {

class HeadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = TestDir("head");
    RemoveDirRecursive(ws_);
    series_chunks_ = std::make_unique<ChunkArray>(ws_, "series", 256, 64);
    ts_chunks_ = std::make_unique<ChunkArray>(ws_, "gts", 192, 64);
    val_chunks_ = std::make_unique<ChunkArray>(ws_, "gval", 192, 64);
  }
  void TearDown() override {
    series_chunks_.reset();
    ts_chunks_.reset();
    val_chunks_.reset();
    RemoveDirRecursive(ws_);
  }

  std::string ws_;
  std::unique_ptr<ChunkArray> series_chunks_;
  std::unique_ptr<ChunkArray> ts_chunks_;
  std::unique_ptr<ChunkArray> val_chunks_;
};

constexpr int64_t kFar = INT64_MAX / 2;

TEST_F(HeadTest, SeriesAppendAndSnapshot) {
  SeriesHead head(1, 0, series_chunks_.get(), 32);
  AppendResult result;
  bool too_old;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(head.Append(i * 1000, 1.0 * i, kFar, &result, &too_old).ok());
    EXPECT_EQ(result, AppendResult::kOk);
    EXPECT_FALSE(too_old);
  }
  std::vector<compress::Sample> samples;
  ASSERT_TRUE(head.SnapshotOpen(&samples).ok());
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples[7], (compress::Sample{7000, 7.0}));
  EXPECT_EQ(head.last_ts(), 9000);
  EXPECT_EQ(head.open_count(), 10u);
}

TEST_F(HeadTest, SeriesChunkClosesAt32Samples) {
  SeriesHead head(1, 0, series_chunks_.get(), 32);
  AppendResult result;
  bool too_old;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(head.Append(i * 1000, 1.0, kFar, &result, &too_old).ok());
  }
  EXPECT_EQ(result, AppendResult::kChunkClosed);

  std::string payload;
  int64_t first_ts = 0;
  ASSERT_TRUE(head.CloseChunk(&payload, &first_ts));
  EXPECT_EQ(first_ts, 0);
  uint64_t seq = 0;
  std::vector<compress::Sample> samples;
  ASSERT_TRUE(compress::DecodeSeriesChunk(payload, &seq, &samples).ok());
  EXPECT_EQ(samples.size(), 32u);
  EXPECT_FALSE(head.has_open_chunk());
  // Slot returned to the array.
  EXPECT_EQ(series_chunks_->allocated_chunks(), 0u);
}

TEST_F(HeadTest, SeriesPartitionBoundaryForcesFlush) {
  SeriesHead head(1, 0, series_chunks_.get(), 32);
  AppendResult result;
  bool too_old;
  ASSERT_TRUE(head.Append(100, 1.0, /*partition_end=*/1000, &result,
                          &too_old).ok());
  EXPECT_EQ(result, AppendResult::kOk);
  ASSERT_TRUE(head.Append(1500, 2.0, 2000, &result, &too_old).ok());
  EXPECT_EQ(result, AppendResult::kNeedsFlush);  // crosses partition end
  EXPECT_FALSE(too_old);
}

TEST_F(HeadTest, SeriesOutOfOrderMergesInPlace) {
  SeriesHead head(1, 0, series_chunks_.get(), 32);
  AppendResult result;
  bool too_old;
  for (int64_t ts : {1000, 2000, 4000}) {
    ASSERT_TRUE(head.Append(ts, 1.0, kFar, &result, &too_old).ok());
  }
  // Insert between existing samples.
  ASSERT_TRUE(head.Append(3000, 9.0, kFar, &result, &too_old).ok());
  EXPECT_EQ(result, AppendResult::kOk);
  // Replace an existing timestamp.
  ASSERT_TRUE(head.Append(2000, 7.0, kFar, &result, &too_old).ok());
  EXPECT_EQ(result, AppendResult::kDuplicate);

  std::vector<compress::Sample> samples;
  ASSERT_TRUE(head.SnapshotOpen(&samples).ok());
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[1], (compress::Sample{2000, 7.0}));
  EXPECT_EQ(samples[2], (compress::Sample{3000, 9.0}));
}

TEST_F(HeadTest, SeriesTooOldSignalled) {
  SeriesHead head(1, 0, series_chunks_.get(), 32);
  AppendResult result;
  bool too_old;
  ASSERT_TRUE(head.Append(10000, 1.0, kFar, &result, &too_old).ok());
  ASSERT_TRUE(head.Append(500, 2.0, kFar, &result, &too_old).ok());
  EXPECT_TRUE(too_old);
  // The open chunk is untouched.
  std::vector<compress::Sample> samples;
  ASSERT_TRUE(head.SnapshotOpen(&samples).ok());
  EXPECT_EQ(samples.size(), 1u);
}

TEST_F(HeadTest, SeriesMergeOverflowSpillsWholeChunk) {
  // Random doubles with jittered timestamps fill the slot quickly; an
  // out-of-order merge then overflows and must spill, not drop samples.
  SeriesHead head(1, 0, series_chunks_.get(), 1000);
  AppendResult result;
  bool too_old;
  Random rng(3);
  int64_t ts = 0;
  int appended = 0;
  while (true) {
    ts += 1 + static_cast<int64_t>(rng.Uniform(100000));
    ASSERT_TRUE(
        head.Append(ts, rng.NextDouble(), kFar, &result, &too_old).ok());
    ++appended;
    if (result == AppendResult::kNeedsFlush || appended > 500) break;
  }
  ASSERT_EQ(result, AppendResult::kNeedsFlush) << "slot should fill";
  // Merge into the nearly-full chunk until an overflow spill happens.
  int64_t mid = ts / 2;
  int merges = 0;
  while (merges < 200) {
    ASSERT_TRUE(
        head.Append(mid, rng.NextDouble(), kFar, &result, &too_old).ok());
    ASSERT_FALSE(too_old);
    ++merges;
    mid += 1;
    if (result == AppendResult::kChunkClosed) break;
  }
  ASSERT_EQ(result, AppendResult::kChunkClosed);
  std::string payload;
  int64_t first_ts = 0;
  ASSERT_TRUE(head.CloseChunk(&payload, &first_ts));
  uint64_t seq;
  std::vector<compress::Sample> samples;
  ASSERT_TRUE(compress::DecodeSeriesChunk(payload, &seq, &samples).ok());
  // Every appended + merged sample is present.
  EXPECT_EQ(samples.size(), static_cast<size_t>(appended - 1 + merges));
}

TEST_F(HeadTest, GroupRowsAndMemberSnapshots) {
  GroupHead head(10, 0, ts_chunks_.get(), val_chunks_.get(), 32);
  uint32_t s0, s1;
  ASSERT_TRUE(head.AddMember(0, "m0", &s0).ok());
  ASSERT_TRUE(head.AddMember(0, "m1", &s1).ok());
  EXPECT_EQ(head.FindMember("m1"), 1);
  EXPECT_EQ(head.FindMember("zz"), -1);

  AppendResult result;
  bool too_old;
  ASSERT_TRUE(head.InsertRow(100, {0, 1}, {1.0, 2.0}, kFar, &result,
                             &too_old).ok());
  // Member 1 missing this round.
  ASSERT_TRUE(head.InsertRow(200, {0}, {1.5}, kFar, &result, &too_old).ok());

  std::vector<compress::Sample> samples;
  ASSERT_TRUE(head.SnapshotMember(0, &samples).ok());
  EXPECT_EQ(samples.size(), 2u);
  ASSERT_TRUE(head.SnapshotMember(1, &samples).ok());
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0], (compress::Sample{100, 2.0}));
}

TEST_F(HeadTest, GroupNewMemberBackfilledWithNulls) {
  GroupHead head(10, 0, ts_chunks_.get(), val_chunks_.get(), 32);
  uint32_t s0;
  ASSERT_TRUE(head.AddMember(0, "m0", &s0).ok());
  AppendResult result;
  bool too_old;
  ASSERT_TRUE(head.InsertRow(100, {0}, {1.0}, kFar, &result, &too_old).ok());
  ASSERT_TRUE(head.InsertRow(200, {0}, {1.1}, kFar, &result, &too_old).ok());

  uint32_t s1;
  ASSERT_TRUE(head.AddMember(0, "m1", &s1).ok());  // joins late
  ASSERT_TRUE(head.InsertRow(300, {0, 1}, {1.2, 9.0}, kFar, &result,
                             &too_old).ok());

  std::vector<compress::Sample> samples;
  ASSERT_TRUE(head.SnapshotMember(1, &samples).ok());
  ASSERT_EQ(samples.size(), 1u);  // rounds 100/200 are NULL for m1
  EXPECT_EQ(samples[0], (compress::Sample{300, 9.0}));
}

TEST_F(HeadTest, GroupChunkSerializesSharedTimestamps) {
  GroupHead head(10, 0, ts_chunks_.get(), val_chunks_.get(), 4);
  uint32_t s0, s1;
  ASSERT_TRUE(head.AddMember(0, "m0", &s0).ok());
  ASSERT_TRUE(head.AddMember(0, "m1", &s1).ok());
  AppendResult result;
  bool too_old;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(head.InsertRow(i * 100, {0, 1},
                               {1.0 * i, 2.0 * i}, kFar, &result,
                               &too_old).ok());
  }
  EXPECT_EQ(result, AppendResult::kChunkClosed);
  std::string payload;
  int64_t first_ts;
  ASSERT_TRUE(head.CloseChunk(&payload, &first_ts));
  uint64_t seq;
  uint32_t members;
  std::vector<compress::GroupRow> rows;
  ASSERT_TRUE(compress::DecodeGroupChunk(payload, &seq, &members, &rows).ok());
  EXPECT_EQ(members, 2u);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(*rows[3].values[1], 6.0);
  // Slots fully released after close.
  EXPECT_EQ(ts_chunks_->allocated_chunks(), 0u);
  EXPECT_EQ(val_chunks_->allocated_chunks(), 0u);
}

TEST_F(HeadTest, GroupOutOfOrderRowMerge) {
  GroupHead head(10, 0, ts_chunks_.get(), val_chunks_.get(), 32);
  uint32_t s0, s1;
  ASSERT_TRUE(head.AddMember(0, "m0", &s0).ok());
  ASSERT_TRUE(head.AddMember(0, "m1", &s1).ok());
  AppendResult result;
  bool too_old;
  ASSERT_TRUE(head.InsertRow(100, {0, 1}, {1.0, 2.0}, kFar, &result,
                             &too_old).ok());
  ASSERT_TRUE(head.InsertRow(300, {0, 1}, {3.0, 4.0}, kFar, &result,
                             &too_old).ok());
  // Out-of-order row between them.
  ASSERT_TRUE(head.InsertRow(200, {1}, {9.0}, kFar, &result, &too_old).ok());
  EXPECT_FALSE(too_old);
  // Duplicate-timestamp row overwrites the provided member only.
  ASSERT_TRUE(head.InsertRow(100, {0}, {7.0}, kFar, &result, &too_old).ok());

  std::vector<compress::Sample> m0, m1;
  ASSERT_TRUE(head.SnapshotMember(0, &m0).ok());
  ASSERT_TRUE(head.SnapshotMember(1, &m1).ok());
  ASSERT_EQ(m0.size(), 2u);
  EXPECT_EQ(m0[0], (compress::Sample{100, 7.0}));
  ASSERT_EQ(m1.size(), 3u);
  EXPECT_EQ(m1[1], (compress::Sample{200, 9.0}));
}

TEST(ChunkArrayTest, AllocateFreeReuse) {
  const std::string ws = TestDir("chunk_array");
  RemoveDirRecursive(ws);
  {
    ChunkArray arr(ws, "c", 128, 8);
    std::vector<uint64_t> slots;
    for (int i = 0; i < 20; ++i) {  // spans 3 files
      uint64_t slot;
      ASSERT_TRUE(arr.Allocate(&slot).ok());
      slots.push_back(slot);
      memset(arr.ChunkData(slot), i, 128);
    }
    EXPECT_EQ(arr.allocated_chunks(), 20u);
    // Contents are independent.
    EXPECT_EQ(arr.ChunkData(slots[3])[0], 3);
    arr.Free(slots[5]);
    EXPECT_EQ(arr.allocated_chunks(), 19u);
    // The freed slot is reused before any new file is mapped: allocate
    // until every existing slot (3 files x 8) is taken.
    std::set<uint64_t> fresh;
    for (int i = 0; i < 5; ++i) {
      uint64_t slot;
      ASSERT_TRUE(arr.Allocate(&slot).ok());
      fresh.insert(slot);
    }
    EXPECT_TRUE(fresh.count(slots[5]));
    EXPECT_EQ(arr.allocated_chunks(), 24u);
    EXPECT_TRUE(arr.Sync().ok());
  }
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu::mem
