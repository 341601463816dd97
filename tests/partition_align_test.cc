// Tests for the Fig. 12 partition split/align policy and the manifest
// recovery of the time-partitioned tree.
#include <gtest/gtest.h>

#include <map>

#include "compress/chunk.h"
#include "lsm/key_format.h"
#include "lsm/time_lsm.h"
#include "util/mmap_file.h"
#include "test_dir.h"

namespace tu::lsm {
namespace {

constexpr int64_t kMin = 60 * 1000;
constexpr int64_t kHour = 60 * kMin;

std::string OneSampleChunk(uint64_t seq, int64_t ts, double v) {
  std::string payload;
  compress::EncodeSeriesChunk(seq, {compress::Sample{ts, v}}, &payload);
  return MakeChunkValue(ChunkType::kSeries, payload);
}

class PartitionAlignTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(false); }

  void Recreate(bool persist_manifest, bool wipe = true) {
    lsm_.reset();
    env_.reset();
    ws_ = TestDir("align");
    if (wipe) RemoveDirRecursive(ws_);
    env_ = std::make_unique<cloud::TieredEnv>(ws_,
                                              cloud::TieredEnvOptions::Instant());
    cache_ = std::make_unique<BlockCache>(8 << 20);
    TimeLsmOptions opts;
    opts.memtable_bytes = 16 << 10;
    opts.persist_manifest = persist_manifest;
    lsm_ = std::make_unique<TimePartitionedLsm>(env_.get(), "db", opts,
                                                cache_.get());
    ASSERT_TRUE(lsm_->Open().ok());
  }

  void TearDown() override {
    lsm_.reset();
    env_.reset();
    RemoveDirRecursive(ws_);
  }

  std::map<int64_t, double> Query(uint64_t id, int64_t t0, int64_t t1) {
    std::unique_ptr<Iterator> it;
    EXPECT_TRUE(lsm_->NewIteratorForId(id, t0, t1, &it).ok());
    std::map<int64_t, std::pair<uint64_t, double>> best;
    for (it->Seek(MakeChunkKey(id, INT64_MIN)); it->Valid(); it->Next()) {
      const Slice user_key = InternalKeyUserKey(it->key());
      if (ChunkKeyId(user_key) != id) break;
      uint64_t seq;
      std::vector<compress::Sample> samples;
      EXPECT_TRUE(compress::DecodeSeriesChunk(ChunkValuePayload(it->value()),
                                              &seq, &samples)
                      .ok());
      for (const auto& s : samples) {
        if (s.timestamp < t0 || s.timestamp > t1) continue;
        auto f = best.find(s.timestamp);
        if (f == best.end() || seq >= f->second.first) {
          best[s.timestamp] = {seq, s.value};
        }
      }
    }
    std::map<int64_t, double> out;
    for (const auto& [ts, sv] : best) out[ts] = sv.second;
    return out;
  }

  std::string ws_;
  std::unique_ptr<cloud::TieredEnv> env_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<TimePartitionedLsm> lsm_;
};

TEST_F(PartitionAlignTest, L1PartitionsAlignedToPartitionGrid) {
  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 4 * kHour; ts += kMin) {
    for (uint64_t id = 0; id < 4; ++id) {
      ASSERT_TRUE(lsm_->Put(MakeChunkKey(id, ts),
                            OneSampleChunk(++seq, ts, 1.0))
                      .ok());
    }
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  // Everything queryable, partitions on the fast tier until window close.
  EXPECT_EQ(Query(2, 0, 4 * kHour).size(),
            static_cast<size_t>(4 * 60));
  EXPECT_GT(lsm_->NumL1Partitions() + lsm_->NumL2Partitions(), 0u);
}

TEST_F(PartitionAlignTest, StaleL0PartitionMergedWithOverlappingL1) {
  uint64_t seq = 0;
  // Build 3.5 hours: the [0,2h) window migrates to L2 and [2h,2.5h)
  // remains as an L1 partition.
  for (int64_t ts = 0; ts < 3 * kHour + 30 * kMin; ts += kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 1.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  const size_t l1_before = lsm_->NumL1Partitions();
  ASSERT_GT(l1_before, 0u);

  // Stale data into the window now in L1: its L0 partition is out-of-order
  // and must sort-merge with the overlapping L1 partition (§3.3).
  const int64_t stale_start = 2 * kHour;
  for (int64_t ts = stale_start; ts < stale_start + 30 * kMin; ts += kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 7.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());

  const auto samples = Query(1, stale_start, stale_start + 30 * kMin);
  for (int64_t ts = stale_start; ts < stale_start + 30 * kMin; ts += kMin) {
    EXPECT_EQ(samples.at(ts), 7.0) << ts;
  }
  // No patches: the merge happened entirely on the fast tier.
  EXPECT_EQ(lsm_->stats().patches_created.load(), 0u);
}

TEST_F(PartitionAlignTest, ManifestRecoveryRestoresTree) {
  Recreate(/*persist_manifest=*/true);
  uint64_t seq = 0;
  for (int64_t ts = 0; ts < 10 * kHour; ts += kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 2.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  const size_t l2 = lsm_->NumL2Partitions();
  const auto before = Query(1, 0, 10 * kHour);
  ASSERT_GT(l2, 0u);

  // Reopen over the same files: manifest restores levels and counters.
  Recreate(/*persist_manifest=*/true, /*wipe=*/false);
  EXPECT_EQ(lsm_->NumL2Partitions(), l2);
  EXPECT_EQ(Query(1, 0, 10 * kHour), before);

  // The tree stays writable with correct table-id continuation.
  for (int64_t ts = 10 * kHour; ts < 11 * kHour; ts += kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(1, ts), OneSampleChunk(++seq, ts, 3.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  EXPECT_EQ(Query(1, 10 * kHour, 11 * kHour).size(), 60u);
}

TEST_F(PartitionAlignTest, PatchesRoutedByIdRange) {
  uint64_t seq = 0;
  // Many series so L2 partitions hold multiple tables with distinct ID
  // ranges (patch routing, Fig. 11).
  TimeLsmOptions opts;
  for (int64_t ts = 0; ts < 10 * kHour; ts += 2 * kMin) {
    for (uint64_t id = 0; id < 32; ++id) {
      ASSERT_TRUE(lsm_->Put(MakeChunkKey(id, ts),
                            OneSampleChunk(++seq, ts, 1.0))
                      .ok());
    }
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  ASSERT_GT(lsm_->NumL2Partitions(), 0u);

  // Stale writes for two distant IDs.
  for (int64_t ts = 0; ts < kHour; ts += 4 * kMin) {
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(3, ts), OneSampleChunk(++seq, ts, 8.0)).ok());
    ASSERT_TRUE(
        lsm_->Put(MakeChunkKey(30, ts), OneSampleChunk(++seq, ts, 9.0)).ok());
  }
  ASSERT_TRUE(lsm_->FlushAll().ok());
  EXPECT_GT(lsm_->stats().patches_created.load(), 0u);

  EXPECT_EQ(Query(3, 0, kHour).at(0), 8.0);
  EXPECT_EQ(Query(30, 0, kHour).at(0), 9.0);
  EXPECT_EQ(Query(5, 0, kHour).at(0), 1.0);  // untouched series unaffected
}

}  // namespace
}  // namespace tu::lsm
