#include "m4/cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "test_util.h"

namespace tsviz {
namespace {

StoreConfig TestConfig(const std::string& dir) {
  StoreConfig config;
  config.data_dir = dir;
  config.points_per_chunk = 50;
  config.memtable_flush_threshold = 50;
  return config;
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = TsStore::Open(TestConfig(dir_.path()));
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    ASSERT_OK(store_->WriteAll(MakeLinearSeries(500, 0, 10)));
    ASSERT_OK(store_->Flush());
  }

  TempDir dir_;
  std::unique_ptr<TsStore> store_;
};

TEST_F(CacheTest, HitAvoidsAllIo) {
  M4QueryCache cache(8);
  M4Query query{0, 5000, 7};
  QueryStats first_stats;
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup first,
                       cache.GetOrCompute(*store_, query, &first_stats));
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GT(first_stats.metadata_reads, 0u);

  QueryStats second_stats;
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup second,
                       cache.GetOrCompute(*store_, query, &second_stats));
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second_stats.metadata_reads, 0u);  // untouched on a hit
  EXPECT_EQ(second_stats.bytes_read, 0u);
  EXPECT_EQ(second.result, first.result);  // shared, not copied
}

TEST_F(CacheTest, TextIsKeptOnlyForTheCachedResult) {
  M4QueryCache cache(8);
  M4Query query{0, 5000, 4};
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup miss,
                       cache.GetOrCompute(*store_, query, nullptr));
  EXPECT_EQ(miss.text, nullptr);
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup hit,
                       cache.GetOrCompute(*store_, query, nullptr));
  EXPECT_EQ(hit.text, nullptr);  // nothing rendered yet
  cache.KeepText(hit, std::make_shared<const std::string>("text"));
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup rendered,
                       cache.GetOrCompute(*store_, query, nullptr));
  ASSERT_NE(rendered.text, nullptr);
  EXPECT_EQ(*rendered.text, "text");

  // Text rendered from a result the entry does not hold is not kept.
  M4QueryCache::Lookup stale = rendered;
  stale.result = std::make_shared<const M4Result>(*rendered.result);
  cache.KeepText(stale, std::make_shared<const std::string>("stale"));
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup again,
                       cache.GetOrCompute(*store_, query, nullptr));
  ASSERT_NE(again.text, nullptr);
  EXPECT_EQ(*again.text, "text");
}

TEST_F(CacheTest, EraseStoreDropsOnlyThatStoresEntries) {
  TempDir other_dir;
  ASSERT_OK_AND_ASSIGN(auto other, TsStore::Open(TestConfig(other_dir.path())));
  ASSERT_OK(other->WriteAll(MakeLinearSeries(500, 0, 10)));
  ASSERT_OK(other->Flush());
  M4QueryCache cache(8);
  ASSERT_OK(cache.GetOrCompute(*store_, M4Query{0, 5000, 4}, nullptr).status());
  ASSERT_OK(cache.GetOrCompute(*store_, M4Query{0, 5000, 5}, nullptr).status());
  ASSERT_OK(cache.GetOrCompute(*other, M4Query{0, 5000, 4}, nullptr).status());
  EXPECT_EQ(cache.size(), 3u);
  cache.EraseStore(StoreView(*store_).store_id());
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_OK(cache.GetOrCompute(*other, M4Query{0, 5000, 4}, nullptr).status());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(CacheTest, DifferentGeometriesMissIndependently) {
  M4QueryCache cache(8);
  ASSERT_OK(
      cache.GetOrCompute(*store_, M4Query{0, 5000, 7}, nullptr).status());
  ASSERT_OK(
      cache.GetOrCompute(*store_, M4Query{0, 5000, 8}, nullptr).status());
  ASSERT_OK(
      cache.GetOrCompute(*store_, M4Query{0, 4000, 7}, nullptr).status());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST_F(CacheTest, WritesInvalidate) {
  M4QueryCache cache(8);
  M4Query query{0, 5000, 4};
  ASSERT_OK(cache.GetOrCompute(*store_, query, nullptr).status());
  // A new flush changes the answer; the stale entry must not be served.
  ASSERT_OK(store_->Write(100, 99999.0));
  ASSERT_OK(store_->Flush());
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup fresh,
                       cache.GetOrCompute(*store_, query, nullptr));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ((*fresh.result)[0].top.v, 99999.0);
}

TEST_F(CacheTest, DeletesAndCompactionInvalidate) {
  M4QueryCache cache(8);
  M4Query query{0, 5000, 4};
  ASSERT_OK(cache.GetOrCompute(*store_, query, nullptr).status());
  ASSERT_OK(store_->DeleteRange(TimeRange(0, 1000)));
  ASSERT_OK_AND_ASSIGN(M4QueryCache::Lookup after_delete,
                       cache.GetOrCompute(*store_, query, nullptr));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_GT((*after_delete.result)[0].first.t, 1000);
  ASSERT_OK(store_->Compact());
  ASSERT_OK(cache.GetOrCompute(*store_, query, nullptr).status());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST_F(CacheTest, LruEvictsOldest) {
  M4QueryCache cache(2);
  M4Query a{0, 5000, 1};
  M4Query b{0, 5000, 2};
  M4Query c{0, 5000, 3};
  ASSERT_OK(cache.GetOrCompute(*store_, a, nullptr).status());
  ASSERT_OK(cache.GetOrCompute(*store_, b, nullptr).status());
  ASSERT_OK(cache.GetOrCompute(*store_, a, nullptr).status());  // hit; bumps a
  ASSERT_OK(cache.GetOrCompute(*store_, c, nullptr).status());  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_OK(cache.GetOrCompute(*store_, a, nullptr).status());
  EXPECT_EQ(cache.hits(), 2u);  // a still cached
  ASSERT_OK(cache.GetOrCompute(*store_, b, nullptr).status());
  EXPECT_EQ(cache.misses(), 4u);  // b was evicted
}

TEST_F(CacheTest, ZeroCapacityNeverStores) {
  M4QueryCache cache(0);
  M4Query query{0, 5000, 4};
  ASSERT_OK(cache.GetOrCompute(*store_, query, nullptr).status());
  ASSERT_OK(cache.GetOrCompute(*store_, query, nullptr).status());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(CacheTest, ClearDropsEverything) {
  M4QueryCache cache(8);
  M4Query query{0, 5000, 4};
  ASSERT_OK(cache.GetOrCompute(*store_, query, nullptr).status());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_OK(cache.GetOrCompute(*store_, query, nullptr).status());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(CacheTest, InvalidQueryRejected) {
  M4QueryCache cache(8);
  EXPECT_FALSE(cache.GetOrCompute(*store_, M4Query{10, 5, 4}, nullptr).ok());
}

}  // namespace
}  // namespace tsviz
