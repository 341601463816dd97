#include "index/double_array_trie.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "util/mmap_file.h"
#include "util/random.h"
#include "test_dir.h"

namespace tu::index {
namespace {

class TrieTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("trie_") +
           std::to_string(
               ::testing::UnitTest::GetInstance()->random_seed() ^
               reinterpret_cast<uintptr_t>(this));
    RemoveDirRecursive(dir_);
    TrieOptions opts;
    opts.slots_per_file = 4096;
    opts.tail_file_bytes = 4096;
    trie_ = std::make_unique<DoubleArrayTrie>(dir_, "t", opts);
    ASSERT_TRUE(trie_->Init().ok());
  }

  void TearDown() override {
    trie_.reset();
    RemoveDirRecursive(dir_);
  }

  std::string dir_;
  std::unique_ptr<DoubleArrayTrie> trie_;
};

TEST_F(TrieTest, EmptyLookup) {
  uint64_t v;
  EXPECT_TRUE(trie_->Lookup("missing", &v).IsNotFound());
  EXPECT_EQ(trie_->num_keys(), 0u);
}

TEST_F(TrieTest, SingleKey) {
  ASSERT_TRUE(trie_->Insert("metric$cpu", 7).ok());
  uint64_t v = 0;
  ASSERT_TRUE(trie_->Lookup("metric$cpu", &v).ok());
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(trie_->Lookup("metric$cp", &v).IsNotFound());
  EXPECT_TRUE(trie_->Lookup("metric$cpux", &v).IsNotFound());
  EXPECT_EQ(trie_->num_keys(), 1u);
}

TEST_F(TrieTest, PaperExample) {
  // Fig. 8: metric$cpu and metric$disk share the prefix "metric$".
  ASSERT_TRUE(trie_->Insert("metric$cpu", 1).ok());
  ASSERT_TRUE(trie_->Insert("metric$disk", 2).ok());
  uint64_t v = 0;
  ASSERT_TRUE(trie_->Lookup("metric$cpu", &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(trie_->Lookup("metric$disk", &v).ok());
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(trie_->num_keys(), 2u);
}

TEST_F(TrieTest, OverwriteValue) {
  ASSERT_TRUE(trie_->Insert("key", 1).ok());
  ASSERT_TRUE(trie_->Insert("key", 2).ok());
  uint64_t v = 0;
  ASSERT_TRUE(trie_->Lookup("key", &v).ok());
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(trie_->num_keys(), 1u);
}

TEST_F(TrieTest, PrefixOfExistingKey) {
  ASSERT_TRUE(trie_->Insert("abcdef", 1).ok());
  ASSERT_TRUE(trie_->Insert("abc", 2).ok());
  ASSERT_TRUE(trie_->Insert("abcdefgh", 3).ok());
  uint64_t v = 0;
  ASSERT_TRUE(trie_->Lookup("abcdef", &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(trie_->Lookup("abc", &v).ok());
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(trie_->Lookup("abcdefgh", &v).ok());
  EXPECT_EQ(v, 3u);
}

TEST_F(TrieTest, EmptyKey) {
  ASSERT_TRUE(trie_->Insert("", 42).ok());
  uint64_t v = 0;
  ASSERT_TRUE(trie_->Lookup("", &v).ok());
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(trie_->Lookup("a", &v).IsNotFound());
}

TEST_F(TrieTest, BinaryKeys) {
  const std::string k1("\x00\x01\xff", 3);
  const std::string k2("\x00\x01\xfe", 3);
  ASSERT_TRUE(trie_->Insert(k1, 1).ok());
  ASSERT_TRUE(trie_->Insert(k2, 2).ok());
  uint64_t v = 0;
  ASSERT_TRUE(trie_->Lookup(k1, &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(trie_->Lookup(k2, &v).ok());
  EXPECT_EQ(v, 2u);
}

TEST_F(TrieTest, ScanPrefix) {
  ASSERT_TRUE(trie_->Insert("metric$cpu", 1).ok());
  ASSERT_TRUE(trie_->Insert("metric$disk", 2).ok());
  ASSERT_TRUE(trie_->Insert("metric$diskio", 3).ok());
  ASSERT_TRUE(trie_->Insert("host$a", 4).ok());

  std::map<std::string, uint64_t> found;
  ASSERT_TRUE(trie_
                  ->ScanPrefix("metric$",
                               [&](const std::string& k, uint64_t val) {
                                 found[k] = val;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(found.size(), 3u);
  EXPECT_EQ(found["metric$cpu"], 1u);
  EXPECT_EQ(found["metric$disk"], 2u);
  EXPECT_EQ(found["metric$diskio"], 3u);

  found.clear();
  ASSERT_TRUE(trie_
                  ->ScanPrefix("metric$disk",
                               [&](const std::string& k, uint64_t val) {
                                 found[k] = val;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(found.size(), 2u);

  found.clear();
  ASSERT_TRUE(trie_
                  ->ScanPrefix("",
                               [&](const std::string& k, uint64_t val) {
                                 found[k] = val;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(found.size(), 4u);
}

TEST_F(TrieTest, ScanPrefixEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(trie_->Insert("k" + std::to_string(i), i).ok());
  }
  int seen = 0;
  ASSERT_TRUE(trie_
                  ->ScanPrefix("k",
                               [&](const std::string&, uint64_t) {
                                 return ++seen < 3;
                               })
                  .ok());
  EXPECT_EQ(seen, 3);
}

// Property test: the trie must agree with std::map on random key sets.
class TrieRandomTest : public TrieTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(TrieRandomTest, MatchesReferenceMap) {
  Random rng(GetParam());
  std::map<std::string, uint64_t> reference;
  const char* alphabet = "abcdefgh$0123";
  for (int i = 0; i < 2000; ++i) {
    std::string key;
    const size_t len = rng.Uniform(24);
    for (size_t j = 0; j < len; ++j) {
      key.push_back(alphabet[rng.Uniform(13)]);
    }
    const uint64_t value = rng.Next64();
    reference[key] = value;
    ASSERT_TRUE(trie_->Insert(key, value).ok()) << "key=" << key;
  }
  EXPECT_EQ(trie_->num_keys(), reference.size());
  for (const auto& [key, value] : reference) {
    uint64_t v = 0;
    ASSERT_TRUE(trie_->Lookup(key, &v).ok()) << "key=" << key;
    EXPECT_EQ(v, value) << "key=" << key;
  }
  // Scan must enumerate exactly the reference keys.
  std::map<std::string, uint64_t> scanned;
  ASSERT_TRUE(trie_
                  ->ScanPrefix("",
                               [&](const std::string& k, uint64_t val) {
                                 scanned[k] = val;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(scanned, reference);
  // Lookups of perturbed keys must not produce false positives.
  for (const auto& [key, value] : reference) {
    std::string miss = key + "~";
    if (reference.count(miss)) continue;
    uint64_t v = 0;
    EXPECT_TRUE(trie_->Lookup(miss, &v).IsNotFound()) << "key=" << miss;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieRandomTest, ::testing::Values(1, 2, 3, 7, 42));

TEST_F(TrieTest, MemoryUsageGrows) {
  const uint64_t before = trie_->MemoryUsage();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(trie_->Insert("series_tag_" + std::to_string(i), i).ok());
  }
  EXPECT_GT(trie_->MemoryUsage(), before);
}

TEST_F(TrieTest, SyncPersistsWithoutError) {
  ASSERT_TRUE(trie_->Insert("a", 1).ok());
  EXPECT_TRUE(trie_->Sync().ok());
  trie_->AdviseDontNeed();
  uint64_t v = 0;
  ASSERT_TRUE(trie_->Lookup("a", &v).ok());
  EXPECT_EQ(v, 1u);
}

}  // namespace
}  // namespace tu::index
