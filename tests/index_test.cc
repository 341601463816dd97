#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index/labels.h"
#include "index/postings.h"
#include "index/tag_store.h"
#include "util/mmap_file.h"
#include "test_dir.h"

namespace tu::index {
namespace {

TEST(PostingsTest, InsertSortedDedup) {
  Postings p;
  PostingsInsert(&p, 5);
  PostingsInsert(&p, 1);
  PostingsInsert(&p, 9);
  PostingsInsert(&p, 5);  // duplicate
  EXPECT_EQ(p, (Postings{1, 5, 9}));
  PostingsRemove(&p, 5);
  EXPECT_EQ(p, (Postings{1, 9}));
  PostingsRemove(&p, 42);  // absent: no-op
  EXPECT_EQ(p.size(), 2u);
}

TEST(PostingsTest, SetOperations) {
  const Postings a = {1, 3, 5, 7};
  const Postings b = {3, 4, 5, 6};
  EXPECT_EQ(PostingsIntersect(a, b), (Postings{3, 5}));
  EXPECT_EQ(PostingsUnion(a, b), (Postings{1, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(PostingsIntersect(a, {}).empty());
  const Postings c = {5, 100};
  EXPECT_EQ(PostingsIntersectAll({&a, &b, &c}), (Postings{5}));
  EXPECT_TRUE(PostingsIntersectAll({}).empty());
}

TEST(LabelsTest, KeyAndGroupExtraction) {
  Labels labels = {{"metric", "cpu"}, {"hostname", "h1"}, {"core", "0"}};
  SortLabels(&labels);
  EXPECT_EQ(labels[0].name, "core");
  EXPECT_EQ(LabelsKey(labels), "core$0,hostname$h1,metric$cpu");

  Labels group_tags, unique_tags;
  EXPECT_TRUE(ExtractGroupTags(labels, {"hostname"}, &group_tags,
                               &unique_tags));
  ASSERT_EQ(group_tags.size(), 1u);
  EXPECT_EQ(group_tags[0].value, "h1");
  EXPECT_EQ(unique_tags.size(), 2u);
  // Missing group tag.
  EXPECT_FALSE(ExtractGroupTags(labels, {"rack"}, &group_tags, &unique_tags));
}

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ws_ = TestDir("invidx");
    RemoveDirRecursive(ws_);
    TrieOptions opts;
    opts.slots_per_file = 1 << 14;
    index_ = std::make_unique<InvertedIndex>(ws_, "idx", opts);
    ASSERT_TRUE(index_->Init().ok());
  }
  void TearDown() override {
    index_.reset();
    RemoveDirRecursive(ws_);
  }
  std::string ws_;
  std::unique_ptr<InvertedIndex> index_;
};

TEST_F(InvertedIndexTest, SelectIntersection) {
  ASSERT_TRUE(index_->Add(1, {{"metric", "cpu"}, {"host", "a"}}).ok());
  ASSERT_TRUE(index_->Add(2, {{"metric", "cpu"}, {"host", "b"}}).ok());
  ASSERT_TRUE(index_->Add(3, {{"metric", "mem"}, {"host", "a"}}).ok());

  Postings out;
  ASSERT_TRUE(index_->Select({TagMatcher::Equal("metric", "cpu")}, &out).ok());
  EXPECT_EQ(out, (Postings{1, 2}));
  ASSERT_TRUE(index_
                  ->Select({TagMatcher::Equal("metric", "cpu"),
                            TagMatcher::Equal("host", "a")},
                           &out)
                  .ok());
  EXPECT_EQ(out, (Postings{1}));
  ASSERT_TRUE(
      index_->Select({TagMatcher::Equal("metric", "disk")}, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(index_->Select({}, &out).ok());
  EXPECT_TRUE(out.empty());  // empty matcher set selects nothing
}

TEST_F(InvertedIndexTest, RegexSelect) {
  ASSERT_TRUE(index_->Add(1, {{"metric", "disk_read"}}).ok());
  ASSERT_TRUE(index_->Add(2, {{"metric", "disk_write"}}).ok());
  ASSERT_TRUE(index_->Add(3, {{"metric", "cpu"}}).ok());

  Postings out;
  ASSERT_TRUE(index_->Select({TagMatcher::Regex("metric", "disk.*")}, &out)
                  .ok());
  EXPECT_EQ(out, (Postings{1, 2}));
  // Anchored semantics: must match the whole value.
  ASSERT_TRUE(index_->Select({TagMatcher::Regex("metric", "disk")}, &out)
                  .ok());
  EXPECT_TRUE(out.empty());
  // Invalid regex is an error, not a crash.
  EXPECT_FALSE(index_->Select({TagMatcher::Regex("metric", "[")}, &out).ok());
}

TEST_F(InvertedIndexTest, RemoveSupportsRetention) {
  const Labels labels = {{"metric", "cpu"}, {"host", "x"}};
  ASSERT_TRUE(index_->Add(9, labels).ok());
  Postings out;
  ASSERT_TRUE(index_->GetPostings("metric", "cpu", &out).ok());
  EXPECT_EQ(out, (Postings{9}));
  ASSERT_TRUE(index_->Remove(9, labels).ok());
  ASSERT_TRUE(index_->GetPostings("metric", "cpu", &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(InvertedIndexTest, SharedPostingsForGroups) {
  // Group semantics: many tag pairs map to ONE group id (§3.1).
  for (int member = 0; member < 50; ++member) {
    ASSERT_TRUE(
        index_->Add(7, {{"fieldname", "f" + std::to_string(member)}}).ok());
  }
  ASSERT_TRUE(index_->Add(7, {{"hostname", "h1"}}).ok());
  Postings out;
  ASSERT_TRUE(index_->GetPostings("hostname", "h1", &out).ok());
  EXPECT_EQ(out, (Postings{7}));
  ASSERT_TRUE(index_->GetPostings("fieldname", "f13", &out).ok());
  EXPECT_EQ(out, (Postings{7}));
  EXPECT_EQ(index_->NumTagPairs(), 51u);
}

TEST_F(InvertedIndexTest, MemoryUsageTracked) {
  const uint64_t before = index_->MemoryUsage();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        index_->Add(i, {{"tag", "value_" + std::to_string(i)}}).ok());
  }
  EXPECT_GT(index_->MemoryUsage(), before);
}

TEST(TagStoreTest, AppendReadRoundTrip) {
  const std::string ws = TestDir("tagstore");
  RemoveDirRecursive(ws);
  {
    TagStore store(ws, "tags", 1 << 12);  // small files force crossings
    std::vector<uint64_t> offsets;
    std::vector<Labels> expected;
    for (int i = 0; i < 200; ++i) {
      Labels labels = {{"hostname", "host_" + std::to_string(i)},
                       {"metric", std::string(i % 50, 'm')}};
      uint64_t offset = 0;
      ASSERT_TRUE(store.Append(labels, &offset).ok());
      offsets.push_back(offset);
      expected.push_back(labels);
    }
    for (int i = 0; i < 200; ++i) {
      Labels got;
      ASSERT_TRUE(store.Read(offsets[i], &got).ok());
      EXPECT_EQ(got, expected[i]) << i;
    }
    EXPECT_GT(store.BytesUsed(), 0u);
  }
  RemoveDirRecursive(ws);
}

}  // namespace
}  // namespace tu::index
