// Tests for the TPC-H-like generator and the throughput-test workload.
//
// The workload cases drive the serving factory one request at a time and
// check its rows against naive folds (naive_reference.h).

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "power/platform.h"
#include "storage/ssd.h"
#include "tpch/generator.h"
#include "tpch/workload.h"

#include "naive_reference.h"

namespace ecodb::tpch {
namespace {

TpchConfig SmallConfig() {
  TpchConfig config;
  config.scale_factor = 0.2;  // 3000 orders, ~12000 lineitems
  return config;
}

TEST(TpchGenerator, SchemasHaveExpectedShape) {
  EXPECT_EQ(OrdersSchema().num_columns(), 7);  // the [HLA+06] 7-attr ORDERS
  EXPECT_EQ(LineitemSchema().num_columns(), 8);
  EXPECT_GE(OrdersSchema().FindColumn("o_orderkey"), 0);
  EXPECT_GE(LineitemSchema().FindColumn("l_shipdate"), 0);
}

TEST(TpchGenerator, DeterministicAcrossCalls) {
  const auto a = GenerateOrders(SmallConfig());
  const auto b = GenerateOrders(SmallConfig());
  EXPECT_EQ(a[0].i64, b[0].i64);
  EXPECT_EQ(a[3].f64, b[3].f64);
  EXPECT_EQ(a[5].str, b[5].str);
}

TEST(TpchGenerator, SeedChangesData) {
  TpchConfig other = SmallConfig();
  other.seed = 999;
  const auto a = GenerateOrders(SmallConfig());
  const auto b = GenerateOrders(other);
  EXPECT_NE(a[1].i64, b[1].i64);  // custkeys differ
  EXPECT_EQ(a[0].i64, b[0].i64);  // orderkeys are structural (1..n)
}

TEST(TpchGenerator, OrdersValueRanges) {
  const auto cols = GenerateOrders(SmallConfig());
  const size_t n = cols[0].i64.size();
  EXPECT_EQ(n, 3000u);
  std::set<std::string> statuses(cols[2].str.begin(), cols[2].str.end());
  EXPECT_LE(statuses.size(), 3u);
  std::set<std::string> priorities(cols[5].str.begin(), cols[5].str.end());
  EXPECT_LE(priorities.size(), 5u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(cols[0].i64[i], static_cast<int64_t>(i + 1));
    EXPECT_GE(cols[3].f64[i], 850.0);
    EXPECT_GE(cols[4].i64[i], kDateEpochStart);
    EXPECT_LT(cols[4].i64[i], kDateEpochStart + kDateRangeDays);
    EXPECT_EQ(cols[6].i64[i], 0);  // o_shippriority constant
  }
}

TEST(TpchGenerator, LineitemReferencesOrders) {
  const auto lines = GenerateLineitem(SmallConfig());
  const size_t orders = 3000;
  for (int64_t key : lines[0].i64) {
    EXPECT_GE(key, 1);
    EXPECT_LE(key, static_cast<int64_t>(orders));
  }
  // Roughly lineitems_per_order lines per order.
  const double ratio =
      static_cast<double>(lines[0].i64.size()) / static_cast<double>(orders);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 6.0);
}

TEST(TpchGenerator, DiscountsWithinTpchRange) {
  const auto lines = GenerateLineitem(SmallConfig());
  for (double d : lines[5].f64) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 0.10 + 1e-12);
  }
}

// --- The widened schema (CUSTOMER / PART / SUPPLIER / PARTSUPP) ---------------

TEST(TpchGenerator, WidenedSchemasHaveExpectedShape) {
  EXPECT_EQ(CustomerSchema().num_columns(), 5);
  EXPECT_EQ(PartSchema().num_columns(), 5);
  EXPECT_EQ(SupplierSchema().num_columns(), 4);
  EXPECT_EQ(PartsuppSchema().num_columns(), 4);
  EXPECT_GE(CustomerSchema().FindColumn("c_mktsegment"), 0);
  EXPECT_GE(PartSchema().FindColumn("p_brand"), 0);
  EXPECT_GE(SupplierSchema().FindColumn("s_nationkey"), 0);
  EXPECT_GE(PartsuppSchema().FindColumn("ps_supplycost"), 0);
}

TEST(TpchGenerator, RowCountsScaleVolumetrically) {
  const TpchRowCounts small = RowCountsFor(SmallConfig());
  EXPECT_EQ(small.orders, 3000u);
  EXPECT_EQ(small.customers, 300u);
  EXPECT_EQ(small.parts, 375u);
  EXPECT_EQ(small.suppliers, 20u);
  EXPECT_EQ(small.partsupp, 750u);

  TpchConfig bigger = SmallConfig();
  bigger.scale_factor = 0.4;
  const TpchRowCounts big = RowCountsFor(bigger);
  EXPECT_EQ(big.orders, 2 * small.orders);
  EXPECT_EQ(big.customers, 2 * small.customers);
  EXPECT_EQ(big.partsupp, 2 * small.partsupp);

  EXPECT_EQ(GenerateCustomer(SmallConfig())[0].i64.size(), small.customers);
  EXPECT_EQ(GeneratePart(SmallConfig())[0].i64.size(), small.parts);
  EXPECT_EQ(GenerateSupplier(SmallConfig())[0].i64.size(), small.suppliers);
  EXPECT_EQ(GeneratePartsupp(SmallConfig())[0].i64.size(), small.partsupp);
}

TEST(TpchGenerator, WidenedTablesDeterministicAcrossCalls) {
  EXPECT_EQ(GenerateCustomer(SmallConfig())[3].f64,
            GenerateCustomer(SmallConfig())[3].f64);
  EXPECT_EQ(GeneratePart(SmallConfig())[1].str,
            GeneratePart(SmallConfig())[1].str);
  EXPECT_EQ(GenerateSupplier(SmallConfig())[3].f64,
            GenerateSupplier(SmallConfig())[3].f64);
  EXPECT_EQ(GeneratePartsupp(SmallConfig())[2].i64,
            GeneratePartsupp(SmallConfig())[2].i64);
}

TEST(TpchGenerator, AddingTablesDoesNotPerturbFactTables) {
  // Each table consumes its own salted RNG stream: the ORDERS/LINEITEM
  // bytes must be exactly what they were before the schema widened (bench
  // baselines depend on them). Spot-pin a few values drawn from the seed
  // streams so any reseeding shows up as a concrete diff, not just an
  // intra-run comparison.
  const auto orders = GenerateOrders(SmallConfig());
  const auto lines = GenerateLineitem(SmallConfig());
  EXPECT_EQ(orders[0].i64.size(), 3000u);
  EXPECT_EQ(lines[0].i64.size(), 12044u);
  EXPECT_EQ(orders[1].i64[0], 106);   // first o_custkey at seed 20090104
  EXPECT_EQ(orders[4].i64[0], 1220);  // first o_orderdate
  EXPECT_EQ(lines[1].i64[0], 60);     // first l_partkey
}

TEST(TpchGenerator, ForeignKeysResolve) {
  const TpchConfig config = SmallConfig();
  const TpchRowCounts counts = RowCountsFor(config);
  const auto orders = GenerateOrders(config);
  const auto lines = GenerateLineitem(config);
  const auto partsupp = GeneratePartsupp(config);

  // Every o_custkey hits CUSTOMER's dense [1, customers] key range.
  for (int64_t k : orders[1].i64) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, static_cast<int64_t>(counts.customers));
  }
  // Every l_partkey / l_suppkey resolves against PART / SUPPLIER.
  for (int64_t k : lines[1].i64) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, static_cast<int64_t>(counts.parts));
  }
  for (int64_t k : lines[2].i64) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, static_cast<int64_t>(counts.suppliers));
  }
  // PARTSUPP covers every part exactly twice, with distinct suppliers.
  EXPECT_EQ(partsupp[0].i64.size(), counts.partsupp);
  for (size_t i = 0; i < partsupp[0].i64.size(); i += 2) {
    EXPECT_EQ(partsupp[0].i64[i], partsupp[0].i64[i + 1]);  // same part
    EXPECT_NE(partsupp[1].i64[i], partsupp[1].i64[i + 1]);  // diff supplier
    EXPECT_GE(partsupp[1].i64[i], 1);
    EXPECT_LE(partsupp[1].i64[i],
              static_cast<int64_t>(counts.suppliers));
  }
}

TEST(TpchGenerator, CustomerAndPartValueShapes) {
  const auto customers = GenerateCustomer(SmallConfig());
  std::set<std::string> segments(customers[4].str.begin(),
                                 customers[4].str.end());
  EXPECT_LE(segments.size(), 5u);
  EXPECT_GE(segments.size(), 2u);
  for (size_t i = 0; i < customers[0].i64.size(); ++i) {
    EXPECT_EQ(customers[0].i64[i], static_cast<int64_t>(i + 1));
    EXPECT_GE(customers[3].f64[i], -999.99 - 1e-9);
    EXPECT_LE(customers[3].f64[i], 9999.99 + 1e-9);
  }
  const auto parts = GeneratePart(SmallConfig());
  for (size_t i = 0; i < parts[0].i64.size(); ++i) {
    EXPECT_GE(parts[3].i64[i], 1);   // p_size in [1, 50]
    EXPECT_LE(parts[3].i64[i], 50);
    EXPECT_GE(parts[4].f64[i], 900.0);
  }
}

TEST(TpchGenerator, LoadDatabaseRegistersTablesAndForeignKeys) {
  auto platform = power::MakeFlashScanPlatform();
  auto ssd = std::make_unique<storage::SsdDevice>("ssd", power::SsdSpec{},
                                                  platform->meter());
  catalog::Catalog catalog;
  auto db = LoadDatabase(SmallConfig(), storage::TableLayout::kColumn,
                         ssd.get(), &catalog);
  ASSERT_TRUE(db.ok()) << db.status().message();
  const TpchRowCounts counts = RowCountsFor(SmallConfig());
  EXPECT_EQ(db->orders.storage->row_count(), counts.orders);
  EXPECT_EQ(db->customer.storage->row_count(), counts.customers);
  EXPECT_EQ(db->part.storage->row_count(), counts.parts);
  EXPECT_EQ(db->supplier.storage->row_count(), counts.suppliers);
  EXPECT_EQ(db->partsupp.storage->row_count(), counts.partsupp);

  // Load-time statistics are populated (the planner prices from these).
  EXPECT_EQ(db->lineitem.stats.columns.size(),
            static_cast<size_t>(LineitemSchema().num_columns()));
  EXPECT_GT(db->customer.stats.columns[0].distinct_values, 0u);

  // All six names registered; FKs declared on the child tables.
  for (const char* name : {"orders", "lineitem", "customer", "part",
                           "supplier", "partsupp"}) {
    EXPECT_TRUE(catalog.GetTable(name).ok()) << name;
  }
  auto orders_entry = catalog.GetTable("orders");
  ASSERT_TRUE(orders_entry.ok());
  ASSERT_EQ((*orders_entry)->foreign_keys.size(), 1u);
  EXPECT_EQ((*orders_entry)->foreign_keys[0].column, "o_custkey");
  EXPECT_EQ((*orders_entry)->foreign_keys[0].parent_table, "customer");
  auto lineitem_entry = catalog.GetTable("lineitem");
  ASSERT_TRUE(lineitem_entry.ok());
  EXPECT_EQ((*lineitem_entry)->foreign_keys.size(), 3u);
  auto partsupp_entry = catalog.GetTable("partsupp");
  ASSERT_TRUE(partsupp_entry.ok());
  EXPECT_EQ((*partsupp_entry)->foreign_keys.size(), 2u);
}

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : platform_(power::MakeFlashScanPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("ssd", power::SsdSpec{},
                                                platform_->meter());
    auto orders = LoadOrders(SmallConfig(), 1, storage::TableLayout::kColumn,
                             ssd_.get());
    auto lineitem = LoadLineitem(SmallConfig(), 2,
                                 storage::TableLayout::kColumn, ssd_.get());
    EXPECT_TRUE(orders.ok());
    EXPECT_TRUE(lineitem.ok());
    orders_ = std::move(orders).value();
    lineitem_ = std::move(lineitem).value();
  }

  /// One factory request, planned and run alone.
  struct Outcome {
    exec::QueryResultSet rows;
    exec::QueryStats stats;
    std::vector<sched::SessionManager::ScanRequest> scans;
  };
  StatusOr<Outcome> Run(int query_class, int param) {
    sim::TraceRequest req;
    req.query_class = query_class;
    req.param = param;
    ECODB_ASSIGN_OR_RETURN(
        sched::SessionManager::PlannedQuery pq,
        MakeServingFactory(orders_.get(), lineitem_.get())(req));
    exec::ExecContext ctx(platform_.get(), exec::ExecOptions{});
    Outcome out;
    ECODB_ASSIGN_OR_RETURN(out.rows, exec::CollectAll(pq.root.get(), &ctx));
    out.stats = ctx.Finish();
    out.scans = std::move(pq.scans);
    return out;
  }

  /// The column names a declared scan reads.
  std::set<std::string> ColumnNames(
      const sched::SessionManager::ScanRequest& scan) const {
    std::set<std::string> names;
    for (int c : scan.columns) {
      names.insert(scan.table->schema().column(c).name);
    }
    return names;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  std::unique_ptr<storage::TableStorage> orders_;
  std::unique_ptr<storage::TableStorage> lineitem_;
};

// The mixture's substitution parameters for stream `p`, restated here so
// the oracles below do not read them back from the code under test.
int64_t PricingCutoff(int p) { return kDateRangeDays - 90 - 30 * p; }
int64_t RevenueYearStart(int p) { return (p % 5) * 365; }
int64_t OrderCutoff(int p) { return kDateRangeDays / 2 + 60 * p; }

TEST_F(WorkloadTest, PricingSummaryGroupsByReturnFlag) {
  const int64_t cutoff = PricingCutoff(0);
  auto result = Run(/*query_class=*/0, /*param=*/0);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_LE(result->rows.TotalRows(), 3u);  // R / A / N
  EXPECT_GE(result->rows.TotalRows(), 2u);
  // count_order sums to the line items shipped by the cutoff.
  int64_t total = 0;
  const int count_col = result->rows.schema.FindColumn("count_order");
  ASSERT_GE(count_col, 0);
  for (const auto& batch : result->rows.batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      total += batch.GetValue(r, count_col).i64;
    }
  }
  const auto ship = lineitem_->RawColumn(
      lineitem_->schema().FindColumn("l_shipdate"));
  const int64_t expected = std::count_if(
      ship.i64.begin(), ship.i64.end(),
      [cutoff](int64_t d) { return d <= cutoff; });
  EXPECT_EQ(total, expected);
  EXPECT_LT(expected, static_cast<int64_t>(lineitem_->row_count()));
}

TEST_F(WorkloadTest, RevenueQueryReturnsOneRow) {
  auto result = Run(/*query_class=*/1, /*param=*/0);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result->rows.TotalRows(), 1u);
  EXPECT_GT(result->rows.batches[0].GetValue(0, 0).f64, 0.0);
}

TEST_F(WorkloadTest, OrderRevenueJoinProducesShipPriorityGroups) {
  auto result = Run(/*query_class=*/2, /*param=*/7);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // o_shippriority is constant 0 -> exactly one group.
  ASSERT_EQ(result->rows.TotalRows(), 1u);
  const int count_col = result->rows.schema.FindColumn("count_items");
  ASSERT_GE(count_col, 0);
  const int64_t count =
      result->rows.batches[0].GetValue(0, count_col).i64;
  EXPECT_GT(count, 0);
  EXPECT_LT(count, static_cast<int64_t>(lineitem_->row_count()));
}

TEST_F(WorkloadTest, ThroughputTestAccountsTimeAndEnergy) {
  auto result = RunThroughputTest(platform_.get(), orders_.get(),
                                  lineitem_.get(), 2, exec::ExecOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries_completed, 6);
  EXPECT_GT(result->elapsed_seconds, 0.0);
  EXPECT_GT(result->joules, 0.0);
  EXPECT_GT(result->QueriesPerHour(), 0.0);
  EXPECT_GT(result->EnergyEfficiency(), 0.0);
}

TEST_F(WorkloadTest, ThroughputTestRejectsZeroBatchRows) {
  // Zero-row batches would never reach end of stream.
  exec::ExecOptions options;
  options.batch_rows = 0;
  auto result = RunThroughputTest(platform_.get(), orders_.get(),
                                  lineitem_.get(), 1, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WorkloadTest, StreamsVaryParameters) {
  // Different stream indexes must produce different revenue answers
  // (the TPC-H substitution-parameter idea).
  auto r0 = Run(/*query_class=*/1, /*param=*/0);
  auto r1 = Run(/*query_class=*/1, /*param=*/1);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(r0->rows.batches[0].GetValue(0, 0).f64,
            r1->rows.batches[0].GetValue(0, 0).f64);
}

TEST_F(WorkloadTest, ServingFactoryMatchesNaiveFoldsAndDeclaresPlanScans) {
  using exec::Col;
  using exec::Lit;
  using exec::LitDate;
  using Names = std::set<std::string>;
  const std::vector<Names> lineitem_columns = {
      {"l_returnflag", "l_quantity", "l_extendedprice", "l_discount",
       "l_shipdate"},
      {"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"},
      {"l_orderkey", "l_extendedprice", "l_discount"}};
  const Names order_columns = {"o_orderkey", "o_orderdate",
                               "o_shippriority"};
  const auto column = [](const storage::TableStorage& t, const char* name) {
    return t.RawColumn(t.schema().FindColumn(name));
  };

  for (int query_class = 0; query_class < 3; ++query_class) {
    for (int p = 0; p < 8; ++p) {
      SCOPED_TRACE("query_class=" + std::to_string(query_class) +
                   " param=" + std::to_string(p));
      exec::naive::Rows expected;
      if (query_class == 0) {
        expected = exec::naive::GroupBy(
            exec::naive::Materialize(*lineitem_,
                               Col("l_shipdate") <= LitDate(PricingCutoff(p))),
            {"l_returnflag"},
            {{"sum_qty", exec::AggFunc::kSum, Col("l_quantity")},
             {"sum_base_price", exec::AggFunc::kSum, Col("l_extendedprice")},
             {"sum_disc_price", exec::AggFunc::kSum,
              Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))},
             {"avg_qty", exec::AggFunc::kAvg, Col("l_quantity")},
             {"count_order", exec::AggFunc::kCount, nullptr}});
      } else if (query_class == 1) {
        const int64_t lo = RevenueYearStart(p);
        expected = exec::naive::GroupBy(
            exec::naive::Materialize(
                *lineitem_,
                exec::And(exec::And(Col("l_shipdate") >= LitDate(lo),
                                    Col("l_shipdate") < LitDate(lo + 365)),
                          exec::And(exec::And(Col("l_discount") >= Lit(0.02),
                                              Col("l_discount") <= Lit(0.09)),
                                    Col("l_quantity") < Lit(25.0 + p)))),
            {}, {{"revenue", exec::AggFunc::kSum,
                  Col("l_extendedprice") * Col("l_discount")}});
      } else {
        // Line items whose order was placed before the cutoff, folded into
        // the one o_shippriority group (the generator's constant 0).
        const auto okey = column(*orders_, "o_orderkey");
        const auto odate = column(*orders_, "o_orderdate");
        std::set<int64_t> qualifying;
        for (size_t i = 0; i < okey.i64.size(); ++i) {
          if (odate.i64[i] < OrderCutoff(p)) qualifying.insert(okey.i64[i]);
        }
        const auto lkey = column(*lineitem_, "l_orderkey");
        const auto price = column(*lineitem_, "l_extendedprice");
        const auto disc = column(*lineitem_, "l_discount");
        double revenue = 0.0;
        int64_t items = 0;
        for (size_t i = 0; i < lkey.i64.size(); ++i) {
          if (qualifying.count(lkey.i64[i]) == 0) continue;
          revenue += price.f64[i] * (1.0 - disc.f64[i]);
          ++items;
        }
        expected = {{exec::Value::Int64(0), exec::Value::Double(revenue),
                     exec::Value::Int64(items)}};
      }

      auto got = Run(query_class, p);
      ASSERT_TRUE(got.ok()) << got.status().message();
      ASSERT_EQ(got->rows.TotalRows(), expected.size());
      size_t r = 0;
      for (const auto& batch : got->rows.batches) {
        for (const auto& row : exec::naive::ToRows(batch)) {
          ASSERT_EQ(row.size(), expected[r].size());
          for (size_t c = 0; c < row.size(); ++c) {
            const exec::Value& e = expected[r][c];
            if (e.type == catalog::DataType::kDouble) {
              EXPECT_NEAR(row[c].f64, e.f64, 1e-9 * std::abs(e.f64))
                  << "row " << r << " col " << c;
            } else {
              EXPECT_EQ(row[c], e) << "row " << r << " col " << c;
            }
          }
          ++r;
        }
      }

      // One declared scan per plan leaf, LINEITEM (relation 0) first, naming
      // the columns the built scans read: their transfers are exactly the
      // bytes the query was charged.
      const auto& scans = got->scans;
      ASSERT_EQ(scans.size(), query_class == 2 ? 2u : 1u);
      EXPECT_EQ(scans[0].table, lineitem_.get());
      EXPECT_EQ(ColumnNames(scans[0]), lineitem_columns[query_class]);
      if (query_class == 2) {
        EXPECT_EQ(scans[1].table, orders_.get());
        EXPECT_EQ(ColumnNames(scans[1]), order_columns);
      }
      uint64_t declared_bytes = 0;
      for (const auto& scan : scans) {
        declared_bytes += scan.table->ScanBytes(scan.columns);
      }
      EXPECT_EQ(got->stats.io_bytes, declared_bytes);
    }
  }
}

TEST_F(WorkloadTest, ServingFactoryRejectsMissingTable) {
  const auto factory = MakeServingFactory(nullptr, lineitem_.get());
  sim::TraceRequest req;
  req.query_class = 1;
  EXPECT_EQ(factory(req).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ecodb::tpch
