// Tests for the B+tree index and the index-scan access path: structural
// invariants under randomized workloads (validated after every phase),
// duplicate handling across leaf splits, and index-vs-scan cost behaviour.

#include <algorithm>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "exec/filter.h"
#include "exec/index_scan.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/btree.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::storage {
namespace {

TEST(BTree, EmptyTree) {
  BTreeIndex tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.Lookup(5).empty());
  EXPECT_TRUE(tree.RangeScan(0, 100).empty());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BTree, InsertAndLookup) {
  BTreeIndex tree(4);
  for (int64_t k = 0; k < 100; ++k) {
    tree.Insert(k, static_cast<uint64_t>(k * 10));
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_GT(tree.height(), 2);  // fanout 4 must have split repeatedly
  EXPECT_TRUE(tree.Validate().ok());
  for (int64_t k = 0; k < 100; ++k) {
    const auto hits = tree.Lookup(k);
    ASSERT_EQ(hits.size(), 1u) << k;
    EXPECT_EQ(hits[0], static_cast<uint64_t>(k * 10));
  }
  EXPECT_TRUE(tree.Lookup(-1).empty());
  EXPECT_TRUE(tree.Lookup(100).empty());
}

TEST(BTree, ReverseAndShuffledInsertionOrders) {
  for (int order = 0; order < 3; ++order) {
    BTreeIndex tree(6);
    std::vector<int64_t> keys(500);
    for (int i = 0; i < 500; ++i) keys[i] = i;
    if (order == 1) std::reverse(keys.begin(), keys.end());
    if (order == 2) {
      Rng rng(order);
      rng.Shuffle(&keys);
    }
    for (int64_t k : keys) tree.Insert(k, static_cast<uint64_t>(k));
    ASSERT_TRUE(tree.Validate().ok()) << "order " << order;
    const auto all = tree.RangeScan(0, 499);
    ASSERT_EQ(all.size(), 500u);
    for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  }
}

TEST(BTree, DuplicatesAcrossSplits) {
  BTreeIndex tree(4);  // tiny fanout forces duplicates to span leaves
  for (uint64_t r = 0; r < 50; ++r) tree.Insert(7, r);
  for (uint64_t r = 0; r < 10; ++r) tree.Insert(3, 100 + r);
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.Lookup(7).size(), 50u);
  EXPECT_EQ(tree.Lookup(3).size(), 10u);
  EXPECT_TRUE(tree.Lookup(5).empty());
  EXPECT_EQ(tree.RangeScan(3, 7).size(), 60u);
}

TEST(BTree, RangeScanBoundaries) {
  BTreeIndex tree(8);
  for (int64_t k = 0; k < 100; k += 2) {  // even keys only
    tree.Insert(k, static_cast<uint64_t>(k));
  }
  EXPECT_EQ(tree.RangeScan(10, 20).size(), 6u);   // 10,12,...,20
  EXPECT_EQ(tree.RangeScan(11, 19).size(), 4u);   // 12,14,16,18
  EXPECT_EQ(tree.RangeScan(98, 1000).size(), 1u);
  EXPECT_TRUE(tree.RangeScan(99, 1000).empty());
  EXPECT_TRUE(tree.RangeScan(20, 10).empty());    // inverted range
  EXPECT_EQ(tree.RangeScan(INT64_MIN, INT64_MAX).size(), 50u);
}

TEST(BTree, EraseRemovesSpecificEntry) {
  BTreeIndex tree(4);
  tree.Insert(1, 10);
  tree.Insert(1, 11);
  tree.Insert(2, 20);
  EXPECT_TRUE(tree.Erase(1, 11));
  EXPECT_FALSE(tree.Erase(1, 11));  // already gone
  EXPECT_FALSE(tree.Erase(9, 0));   // never existed
  EXPECT_EQ(tree.Lookup(1), (std::vector<uint64_t>{10}));
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(BTree, RandomizedShadowModel) {
  BTreeIndex tree(8);
  std::multimap<int64_t, uint64_t> model;
  Rng rng(404);
  uint64_t next_row = 0;
  for (int step = 0; step < 6000; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 9));
    if (op <= 5) {  // insert (skewed keys to force duplicates)
      const int64_t key = rng.Uniform(0, 200);
      tree.Insert(key, next_row);
      model.emplace(key, next_row);
      ++next_row;
    } else if (op <= 7 && !model.empty()) {  // erase random entry
      auto it = model.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
      EXPECT_TRUE(tree.Erase(it->first, it->second));
      model.erase(it);
    } else {  // range check
      const int64_t lo = rng.Uniform(0, 200);
      const int64_t hi = lo + rng.Uniform(0, 50);
      auto got = tree.RangeScan(lo, hi);
      size_t expect = 0;
      for (auto it = model.lower_bound(lo);
           it != model.end() && it->first <= hi; ++it) {
        ++expect;
      }
      ASSERT_EQ(got.size(), expect) << "[" << lo << "," << hi << "]";
    }
    if (step % 500 == 499) {
      ASSERT_TRUE(tree.Validate().ok()) << "step " << step;
      ASSERT_EQ(tree.size(), model.size());
    }
  }
}

TEST(BTree, HeightGrowsLogarithmically) {
  BTreeIndex tree(64);
  for (int64_t k = 0; k < 100000; ++k) tree.Insert(k, 0);
  EXPECT_LE(tree.height(), 4);  // 64^3 >> 1e5
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.PagesForLookup(), static_cast<size_t>(tree.height()));
}

TEST(BTree, PagesForRangeGrowsWithRangeWidth) {
  BTreeIndex tree(16);
  for (int64_t k = 0; k < 10000; ++k) tree.Insert(k, 0);
  EXPECT_LT(tree.PagesForRange(0, 10), tree.PagesForRange(0, 5000));
}

}  // namespace
}  // namespace ecodb::storage

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

class IndexScanTest : public ::testing::Test {
 protected:
  IndexScanTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s", power::SsdSpec{},
                                                platform_->meter());
    Schema schema({Column{"id", DataType::kInt64, 8},
                   Column{"val", DataType::kDouble, 8}});
    table_ = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kRow, ssd_.get());
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kDouble;
    for (int i = 0; i < 20000; ++i) {
      cols[0].i64.push_back(i);
      cols[1].f64.push_back(i * 0.5);
    }
    EXPECT_TRUE(table_->Append(cols).ok());
    index_ = std::make_unique<storage::BTreeIndex>(64);
    for (uint64_t r = 0; r < 20000; ++r) {
      index_->Insert(static_cast<int64_t>(r), r);
    }
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  std::unique_ptr<storage::TableStorage> table_;
  std::unique_ptr<storage::BTreeIndex> index_;
};

TEST_F(IndexScanTest, FetchesExactlyTheRange) {
  ExecContext ctx(platform_.get(), ExecOptions{});
  IndexScanOp scan(table_.get(), index_.get(), {}, 100, 199);
  auto result = CollectAll(&scan, &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 100u);
  EXPECT_EQ(result->batches[0].GetValue(0, 0).i64, 100);
  EXPECT_DOUBLE_EQ(result->batches[0].GetValue(99, 1).f64, 199 * 0.5);
}

TEST_F(IndexScanTest, AgreesWithFilteredFullScan) {
  ExecContext ctx1(platform_.get(), ExecOptions{});
  IndexScanOp via_index(table_.get(), index_.get(), {}, 5000, 5555);
  auto a = CollectAll(&via_index, &ctx1);
  ctx1.Finish();
  ASSERT_TRUE(a.ok());

  ExecContext ctx2(platform_.get(), ExecOptions{});
  FilterOp via_scan(std::make_unique<TableScanOp>(table_.get()),
                    And(Col("id") >= Lit(int64_t{5000}),
                        Col("id") <= Lit(int64_t{5555})));
  auto b = CollectAll(&via_scan, &ctx2);
  ctx2.Finish();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->TotalRows(), b->TotalRows());
}

TEST_F(IndexScanTest, PointQueryUsesFarLessEnergyThanFullScan) {
  ExecContext ctx1(platform_.get(), ExecOptions{});
  IndexScanOp point(table_.get(), index_.get(), {}, 777, 777);
  ASSERT_TRUE(CollectAll(&point, &ctx1).ok());
  const QueryStats idx_stats = ctx1.Finish();

  ExecContext ctx2(platform_.get(), ExecOptions{});
  FilterOp full(std::make_unique<TableScanOp>(table_.get()),
                Col("id") == Lit(int64_t{777}));
  ASSERT_TRUE(CollectAll(&full, &ctx2).ok());
  const QueryStats scan_stats = ctx2.Finish();

  EXPECT_LT(idx_stats.io_bytes, scan_stats.io_bytes / 5);
  EXPECT_LT(idx_stats.Joules(), scan_stats.Joules());
}

TEST_F(IndexScanTest, WideRangeFetchesManyHeapPages) {
  ExecContext ctx(platform_.get(), ExecOptions{});
  IndexScanOp wide(table_.get(), index_.get(), {}, 0, 19999);
  ASSERT_TRUE(CollectAll(&wide, &ctx).ok());
  ctx.Finish();
  EXPECT_EQ(wide.matches(), 20000u);
  // 16-byte rows, 8 KiB pages -> 512 rows/page -> ~40 pages.
  EXPECT_NEAR(static_cast<double>(wide.heap_pages_fetched()), 40.0, 2.0);
}

TEST_F(IndexScanTest, EmptyRangeEmitsNothing) {
  ExecContext ctx(platform_.get(), ExecOptions{});
  IndexScanOp scan(table_.get(), index_.get(), {}, 90000, 99999);
  auto result = CollectAll(&scan, &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 0u);
}

TEST_F(IndexScanTest, ProjectionSubset) {
  ExecContext ctx(platform_.get(), ExecOptions{});
  IndexScanOp scan(table_.get(), index_.get(),
                   std::vector<std::string>{"val"}, 10, 12);
  auto result = CollectAll(&scan, &ctx);
  ctx.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema.num_columns(), 1);
  EXPECT_EQ(result->TotalRows(), 3u);
}

}  // namespace
}  // namespace ecodb::exec
