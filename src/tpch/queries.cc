#include "tpch/queries.h"

#include <utility>

#include "exec/expr.h"

namespace ecodb::tpch {

namespace {

using exec::AggFunc;
using exec::Col;
using exec::Lit;
using exec::LitDate;
using optimizer::JoinEdge;
using optimizer::QuerySpec;
using optimizer::TableAlternatives;

TableAlternatives Rel(const std::string& name, TableRef table,
                      std::vector<std::string> columns,
                      exec::ExprPtr filter = nullptr) {
  TableAlternatives rel;
  rel.name = name;
  rel.variants = {table.storage};
  rel.columns = std::move(columns);
  rel.filter = std::move(filter);
  rel.stats = table.stats;
  return rel;
}

}  // namespace

QuerySpec MakeSegmentRevenueSpec(const TpchDatabase& db,
                                 const std::string& segment,
                                 int64_t order_date_cutoff) {
  QuerySpec spec;
  spec.relations = {
      Rel("customer", db.customer, {"c_custkey", "c_mktsegment"},
          Col("c_mktsegment") == Lit(segment.c_str())),
      Rel("orders", db.orders, {"o_orderkey", "o_custkey", "o_orderdate"},
          Col("o_orderdate") < Lit(order_date_cutoff)),
      Rel("lineitem", db.lineitem, {"l_orderkey", "l_extendedprice"}),
  };
  spec.edges = {
      {0, 1, "c_custkey", "o_custkey"},
      {1, 2, "o_orderkey", "l_orderkey"},
  };
  return spec;
}

QuerySpec MakePartSupplierProfitSpec(const TpchDatabase& db,
                                     int64_t max_part_size) {
  QuerySpec spec;
  spec.relations = {
      Rel("part", db.part, {"p_partkey", "p_size"},
          Col("p_size") <= Lit(max_part_size)),
      Rel("partsupp", db.partsupp,
          {"ps_partkey", "ps_suppkey", "ps_supplycost"}),
      Rel("supplier", db.supplier, {"s_suppkey", "s_nationkey"}),
      Rel("lineitem", db.lineitem,
          {"l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"}),
  };
  spec.edges = {
      {0, 1, "p_partkey", "ps_partkey"},
      {1, 2, "ps_suppkey", "s_suppkey"},
      // Two edges between PARTSUPP and LINEITEM: whichever the enumerator
      // does not pick as the primary hash key becomes a residual filter.
      {1, 3, "ps_partkey", "l_partkey"},
      {1, 3, "ps_suppkey", "l_suppkey"},
  };
  return spec;
}

QuerySpec MakeLocalSupplierVolumeSpec(const TpchDatabase& db,
                                      const std::string& segment,
                                      int64_t min_part_size) {
  QuerySpec spec;
  spec.relations = {
      Rel("customer", db.customer, {"c_custkey", "c_mktsegment"},
          Col("c_mktsegment") == Lit(segment.c_str())),
      Rel("orders", db.orders, {"o_orderkey", "o_custkey"}),
      Rel("lineitem", db.lineitem,
          {"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice"}),
      Rel("supplier", db.supplier, {"s_suppkey", "s_nationkey"}),
      Rel("part", db.part, {"p_partkey", "p_size"},
          Col("p_size") >= Lit(min_part_size)),
  };
  spec.edges = {
      {0, 1, "c_custkey", "o_custkey"},
      {1, 2, "o_orderkey", "l_orderkey"},
      {2, 3, "l_suppkey", "s_suppkey"},
      {2, 4, "l_partkey", "p_partkey"},
  };
  return spec;
}

QuerySpec MakePromoRevenueSpec(const TpchDatabase& db, int64_t ship_date_lo,
                               int64_t ship_date_hi, uint64_t top_brands) {
  QuerySpec spec;
  spec.relations = {
      Rel("part", db.part, {"p_partkey", "p_brand"}),
      Rel("lineitem", db.lineitem,
          {"l_orderkey", "l_partkey", "l_extendedprice", "l_shipdate"},
          exec::And(Col("l_shipdate") >= Lit(ship_date_lo),
                    Col("l_shipdate") < Lit(ship_date_hi))),
      Rel("orders", db.orders, {"o_orderkey", "o_totalprice"}),
  };
  spec.edges = {
      {0, 1, "p_partkey", "l_partkey"},
      {1, 2, "l_orderkey", "o_orderkey"},
  };
  spec.group_by = {"p_brand"};
  spec.aggregates = {
      {"revenue", exec::AggFunc::kSum, Col("l_extendedprice")},
      {"line_count", exec::AggFunc::kCount, nullptr},
  };
  spec.order_by = {{"revenue", /*ascending=*/false}};
  spec.limit = top_brands;
  return spec;
}

std::vector<JoinQueryShape> MakeJoinQueryShapes(const TpchDatabase& db) {
  std::vector<JoinQueryShape> shapes;
  shapes.push_back(
      {"segment_revenue_q3", MakeSegmentRevenueSpec(db, "BUILDING", 1200)});
  shapes.push_back(
      {"part_supplier_profit_q9", MakePartSupplierProfitSpec(db, 5)});
  shapes.push_back({"local_supplier_volume_q5",
                    MakeLocalSupplierVolumeSpec(db, "MACHINERY", 40)});
  shapes.push_back(
      {"promo_revenue_q14", MakePromoRevenueSpec(db, 900, 960, 5)});
  return shapes;
}

QuerySpec MakeThroughputSpec(TableRef orders, TableRef lineitem, int shape,
                             int stream) {
  const auto disc_price = [] {
    return Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"));
  };
  QuerySpec spec;
  switch (shape) {
    case 0:
      spec.relations = {Rel(
          "lineitem", lineitem,
          {"l_returnflag", "l_quantity", "l_extendedprice", "l_discount",
           "l_shipdate"},
          Col("l_shipdate") <=
              LitDate(kDateEpochStart + kDateRangeDays - 90 - 30 * stream))};
      spec.group_by = {"l_returnflag"};
      spec.aggregates = {
          {"sum_qty", AggFunc::kSum, Col("l_quantity")},
          {"sum_base_price", AggFunc::kSum, Col("l_extendedprice")},
          {"sum_disc_price", AggFunc::kSum, disc_price()},
          {"avg_qty", AggFunc::kAvg, Col("l_quantity")},
          {"count_order", AggFunc::kCount, nullptr},
      };
      break;
    case 1: {
      const int64_t lo = kDateEpochStart + (stream % 5) * 365;
      spec.relations = {Rel(
          "lineitem", lineitem,
          {"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"},
          exec::And(exec::And(Col("l_shipdate") >= LitDate(lo),
                              Col("l_shipdate") < LitDate(lo + 365)),
                    exec::And(exec::And(Col("l_discount") >= Lit(0.02),
                                        Col("l_discount") <= Lit(0.09)),
                              Col("l_quantity") < Lit(25.0 + stream))))};
      spec.aggregates = {{"revenue", AggFunc::kSum,
                          Col("l_extendedprice") * Col("l_discount")}};
      break;
    }
    default:
      spec.relations = {
          Rel("lineitem", lineitem,
              {"l_orderkey", "l_extendedprice", "l_discount"}),
          Rel("orders", orders, {"o_orderkey", "o_orderdate", "o_shippriority"},
              Col("o_orderdate") <
                  LitDate(kDateEpochStart + kDateRangeDays / 2 + 60 * stream)),
      };
      spec.edges = {{0, 1, "l_orderkey", "o_orderkey"}};
      spec.group_by = {"o_shippriority"};
      spec.aggregates = {
          {"revenue", AggFunc::kSum, disc_price()},
          {"count_items", AggFunc::kCount, nullptr},
      };
      break;
  }
  return spec;
}

}  // namespace ecodb::tpch
