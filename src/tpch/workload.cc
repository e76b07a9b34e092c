#include "tpch/workload.h"

#include "exec/aggregate.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "tpch/generator.h"

namespace ecodb::tpch {

using exec::AggFunc;
using exec::AggregateItem;
using exec::And;
using exec::Col;
using exec::Lit;
using exec::LitDate;
using exec::OperatorPtr;

namespace {

// The columns each scan of the mixture reads: the plan projects them and a
// serving session declares them to the shared-scan manager.
const std::vector<std::string> kPricingColumns = {
    "l_returnflag", "l_quantity", "l_extendedprice", "l_discount",
    "l_shipdate"};
const std::vector<std::string> kRevenueColumns = {
    "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"};
const std::vector<std::string> kOrderColumns = {"o_orderkey", "o_orderdate",
                                                "o_shippriority"};
const std::vector<std::string> kOrderLineColumns = {
    "l_orderkey", "l_extendedprice", "l_discount"};

// Query `shape` (0 = Q1, 1 = Q6, 2 = Q3 flavor) of throughput-test stream
// `stream`, with the substitution parameters TPC-H-style streams rotate,
// plus the tables and columns its scans read.
sched::SessionManager::PlannedQuery MakeStreamQuery(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int shape, int stream) {
  const int64_t base = kDateEpochStart;
  const int64_t year = 365;
  sched::SessionManager::PlannedQuery pq;
  auto declare_scan = [&pq](const storage::TableStorage* table,
                            const std::vector<std::string>& names) {
    std::vector<int> idx;
    for (const std::string& name : names) {
      idx.push_back(table->schema().FindColumn(name));
    }
    pq.scans.push_back({table, std::move(idx)});
  };
  switch (shape) {
    case 0:
      pq.root = MakePricingSummaryQuery(
          lineitem, base + kDateRangeDays - 90 - 30 * stream);
      declare_scan(lineitem, kPricingColumns);
      break;
    case 1: {
      const int64_t lo = base + (stream % 5) * year;
      pq.root = MakeRevenueQuery(lineitem, lo, lo + year, 0.02, 0.09,
                                 25.0 + stream);
      declare_scan(lineitem, kRevenueColumns);
      break;
    }
    default:
      pq.root = MakeOrderRevenueQuery(orders, lineitem,
                                      base + kDateRangeDays / 2 + 60 * stream);
      declare_scan(orders, kOrderColumns);
      declare_scan(lineitem, kOrderLineColumns);
      break;
  }
  return pq;
}

}  // namespace

OperatorPtr MakePricingSummaryQuery(const storage::TableStorage* lineitem,
                                    int64_t ship_date_cutoff) {
  OperatorPtr filtered = std::make_unique<exec::TableScanOp>(
      lineitem, kPricingColumns,
      /*prune_filter=*/nullptr, Col("l_shipdate") <= LitDate(ship_date_cutoff));
  std::vector<AggregateItem> aggs;
  aggs.push_back({"sum_qty", AggFunc::kSum, Col("l_quantity")});
  aggs.push_back({"sum_base_price", AggFunc::kSum, Col("l_extendedprice")});
  aggs.push_back({"sum_disc_price", AggFunc::kSum,
                  Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))});
  aggs.push_back({"avg_qty", AggFunc::kAvg, Col("l_quantity")});
  aggs.push_back({"count_order", AggFunc::kCount, nullptr});
  return std::make_unique<exec::HashAggregateOp>(
      std::move(filtered), std::vector<std::string>{"l_returnflag"},
      std::move(aggs));
}

OperatorPtr MakeRevenueQuery(const storage::TableStorage* lineitem,
                             int64_t date_lo, int64_t date_hi,
                             double discount_lo, double discount_hi,
                             double quantity_cap) {
  exec::ExprPtr pred =
      And(And(Col("l_shipdate") >= LitDate(date_lo),
              Col("l_shipdate") < LitDate(date_hi)),
          And(And(Col("l_discount") >= Lit(discount_lo),
                  Col("l_discount") <= Lit(discount_hi)),
              Col("l_quantity") < Lit(quantity_cap)));
  OperatorPtr filtered = std::make_unique<exec::TableScanOp>(
      lineitem, kRevenueColumns, /*prune_filter=*/nullptr, std::move(pred));
  std::vector<AggregateItem> aggs;
  aggs.push_back({"revenue", AggFunc::kSum,
                  Col("l_extendedprice") * Col("l_discount")});
  return std::make_unique<exec::HashAggregateOp>(
      std::move(filtered), std::vector<std::string>{}, std::move(aggs));
}

OperatorPtr MakeOrderRevenueQuery(const storage::TableStorage* orders,
                                  const storage::TableStorage* lineitem,
                                  int64_t order_date_cutoff) {
  OperatorPtr ofiltered = std::make_unique<exec::TableScanOp>(
      orders, kOrderColumns, /*prune_filter=*/nullptr,
      Col("o_orderdate") < LitDate(order_date_cutoff));
  OperatorPtr lscan =
      std::make_unique<exec::TableScanOp>(lineitem, kOrderLineColumns);
  // Probe with lineitem (large side), build on filtered orders.
  OperatorPtr join = std::make_unique<exec::HashJoinOp>(
      std::move(lscan), std::move(ofiltered), "l_orderkey", "o_orderkey");
  std::vector<AggregateItem> aggs;
  aggs.push_back({"revenue", AggFunc::kSum,
                  Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))});
  aggs.push_back({"count_items", AggFunc::kCount, nullptr});
  return std::make_unique<exec::HashAggregateOp>(
      std::move(join), std::vector<std::string>{"o_shippriority"},
      std::move(aggs));
}

sched::SessionManager::QueryFactory MakeServingFactory(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem) {
  return [orders, lineitem](const sim::TraceRequest& req)
             -> StatusOr<sched::SessionManager::PlannedQuery> {
    const int shape = static_cast<int>(((req.query_class % 3) + 3) % 3);
    const int stream = static_cast<int>(((req.param % 8) + 8) % 8);
    return MakeStreamQuery(orders, lineitem, shape, stream);
  };
}

std::vector<OperatorPtr> MakeThroughputStream(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int stream_index) {
  std::vector<OperatorPtr> queries;
  for (int shape = 0; shape < 3; ++shape) {
    queries.push_back(
        MakeStreamQuery(orders, lineitem, shape, stream_index).root);
  }
  return queries;
}

StatusOr<ThroughputResult> RunThroughputTest(
    power::HardwarePlatform* platform, const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int streams,
    const exec::ExecOptions& exec_options) {
  ThroughputResult result;
  const power::MeterSnapshot start = platform->meter()->Snapshot();
  const double t0 = platform->clock()->now();

  for (int s = 0; s < streams; ++s) {
    std::vector<OperatorPtr> queries =
        MakeThroughputStream(orders, lineitem, s);
    for (OperatorPtr& q : queries) {
      exec::ExecContext ctx(platform, exec_options);
      ECODB_ASSIGN_OR_RETURN(exec::QueryResultSet rs,
                             exec::CollectAll(q.get(), &ctx));
      const exec::QueryStats stats = ctx.Finish();
      result.rows_emitted += stats.rows_emitted;
      result.io_bytes += stats.io_bytes;
      result.cpu_core_seconds += stats.cpu_seconds;
      ++result.queries_completed;
    }
  }

  const power::MeterSnapshot end = platform->meter()->Snapshot();
  result.elapsed_seconds = platform->clock()->now() - t0;
  result.joules = platform->BreakdownBetween(start, end).it_joules;
  return result;
}

}  // namespace ecodb::tpch
