// Edge-case sweep across the engine: operator misuse, empty inputs, type
// restrictions, and corner parameters not covered by the per-module suites.

#include <memory>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "tpch/generator.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;

class EdgeCaseTest : public ::testing::Test {
 protected:
  EdgeCaseTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s", power::SsdSpec{},
                                                platform_->meter());
  }

  std::unique_ptr<storage::TableStorage> MakeTable(int n) {
    Schema schema({Column{"k", DataType::kInt64, 8},
                   Column{"d", DataType::kDouble, 8},
                   Column{"s", DataType::kString, 4}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(3);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kDouble;
    cols[2].type = DataType::kString;
    for (int i = 0; i < n; ++i) {
      cols[0].i64.push_back(i);
      cols[1].f64.push_back(i * 1.0);
      cols[2].str.push_back(i % 2 ? "a" : "b");
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  StatusOr<exec::QueryResultSet> Run(exec::Operator* op) {
    exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
    auto result = exec::CollectAll(op, &ctx);
    if (result.ok()) ctx.Finish();
    return result;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

TEST_F(EdgeCaseTest, ScanOfEmptyTable) {
  auto table = MakeTable(0);
  exec::TableScanOp scan(table.get());
  auto result = Run(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 0u);
}

TEST_F(EdgeCaseTest, FilterOverEmptyTable) {
  auto table = MakeTable(0);
  exec::FilterOp plan(std::make_unique<exec::TableScanOp>(table.get()),
                      Col("k") > Lit(int64_t{5}));
  auto result = Run(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 0u);
}

TEST_F(EdgeCaseTest, MergeJoinRejectsNonIntegerKeys) {
  auto a = MakeTable(10);
  auto b = MakeTable(10);
  exec::MergeJoinOp join(std::make_unique<exec::TableScanOp>(a.get()),
                         std::make_unique<exec::TableScanOp>(b.get()), "s",
                         "s");
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  EXPECT_EQ(join.Open(&ctx).code(), StatusCode::kInvalidArgument);
}

TEST_F(EdgeCaseTest, HashJoinRejectsDoubleKeys) {
  auto a = MakeTable(10);
  auto b = MakeTable(10);
  exec::HashJoinOp join(std::make_unique<exec::TableScanOp>(a.get()),
                        std::make_unique<exec::TableScanOp>(b.get()), "d",
                        "d");
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  EXPECT_EQ(join.Open(&ctx).code(), StatusCode::kInvalidArgument);
}

TEST_F(EdgeCaseTest, HashJoinMixedKeyTypesRejected) {
  auto a = MakeTable(10);
  auto b = MakeTable(10);
  exec::HashJoinOp join(std::make_unique<exec::TableScanOp>(a.get()),
                        std::make_unique<exec::TableScanOp>(b.get()), "k",
                        "s");
  exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
  EXPECT_EQ(join.Open(&ctx).code(), StatusCode::kInvalidArgument);
}

TEST_F(EdgeCaseTest, LimitZeroEmitsNothing) {
  auto table = MakeTable(100);
  exec::LimitOp limit(std::make_unique<exec::TableScanOp>(table.get()), 0);
  auto result = Run(&limit);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 0u);
}

TEST_F(EdgeCaseTest, SortEmptyInput) {
  auto table = MakeTable(0);
  exec::SortOp sort(std::make_unique<exec::TableScanOp>(table.get()),
                    {{"k", true}});
  auto result = Run(&sort);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 0u);
}

TEST_F(EdgeCaseTest, SortOnStringColumn) {
  auto table = MakeTable(6);
  exec::SortOp sort(std::make_unique<exec::TableScanOp>(table.get()),
                    {{"s", true}, {"k", true}});
  auto result = Run(&sort);
  ASSERT_TRUE(result.ok());
  // "a" rows (odd k) sort before "b" rows (even k).
  EXPECT_EQ(result->batches[0].GetValue(0, 2).str, "a");
  EXPECT_EQ(result->batches[0].GetValue(0, 0).i64, 1);
  EXPECT_EQ(result->batches[0].GetValue(3, 2).str, "b");
}

TEST_F(EdgeCaseTest, GroupByStringAndAggregate) {
  auto table = MakeTable(100);
  std::vector<exec::AggregateItem> aggs;
  aggs.push_back({"n", exec::AggFunc::kCount, nullptr});
  aggs.push_back({"mx", exec::AggFunc::kMax, Col("d")});
  exec::HashAggregateOp agg(std::make_unique<exec::TableScanOp>(table.get()),
                            {"s"}, std::move(aggs));
  auto result = Run(&agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 2u);
  // Deterministic key order ("a" < "b"): max d of odd rows is 99.
  EXPECT_EQ(result->batches[0].GetValue(0, 0).str, "a");
  EXPECT_DOUBLE_EQ(result->batches[0].GetValue(0, 2).f64, 99.0);
  EXPECT_DOUBLE_EQ(result->batches[0].GetValue(1, 2).f64, 98.0);
}

TEST_F(EdgeCaseTest, NestedOperatorsSurviveReopenPattern) {
  // Plans are single-use, but building a new plan over the same table and
  // shared ExprPtr must work (expressions rebind on each Open).
  auto table = MakeTable(50);
  exec::ExprPtr pred = Col("k") < Lit(int64_t{25});
  for (int round = 0; round < 3; ++round) {
    exec::FilterOp plan(std::make_unique<exec::TableScanOp>(table.get()),
                        pred);
    auto result = Run(&plan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->TotalRows(), 25u);
  }
}

TEST_F(EdgeCaseTest, TpchZeroScaleFactorProducesEmptyTables) {
  tpch::TpchConfig config;
  config.scale_factor = 0.0;
  const auto orders = tpch::GenerateOrders(config);
  EXPECT_EQ(orders[0].i64.size(), 0u);
  const auto lines = tpch::GenerateLineitem(config);
  EXPECT_EQ(lines[0].i64.size(), 0u);
}

TEST_F(EdgeCaseTest, SingleRowTableThroughFullPipeline) {
  auto table = MakeTable(1);
  std::vector<exec::AggregateItem> aggs;
  aggs.push_back({"total", exec::AggFunc::kSum, Col("d") * Lit(2.0)});
  exec::HashAggregateOp agg(
      std::make_unique<exec::FilterOp>(
          std::make_unique<exec::TableScanOp>(table.get()),
          Col("k") >= Lit(int64_t{0})),
      {}, std::move(aggs));
  auto result = Run(&agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->TotalRows(), 1u);
  EXPECT_DOUBLE_EQ(result->batches[0].GetValue(0, 0).f64, 0.0);
}

TEST_F(EdgeCaseTest, ZoneMapsOnEmptyTableAreHarmless) {
  auto table = MakeTable(0);
  ASSERT_TRUE(table->BuildZoneMaps(100).ok());
  exec::TableScanOp scan(table.get(), std::vector<std::string>{},
                         Col("k") < Lit(int64_t{5}));
  auto result = Run(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TotalRows(), 0u);
}

}  // namespace
}  // namespace ecodb
