// Multi-join query shapes over the widened TPC-H schema.
//
// Each builder returns an optimizer::QuerySpec in the N-relation join-graph
// form (QuerySpec::relations + edges) pointing at a loaded TpchDatabase's
// tables and load-time statistics, so the cost-based join-order enumerator
// (optimizer/join_order.h) chooses the tree. The shapes follow the TPC-H
// queries that stress join ordering:
//   * Q3-flavored:  CUSTOMER >< ORDERS >< LINEITEM (chain)
//   * Q9-flavored:  PART >< PARTSUPP >< SUPPLIER >< LINEITEM, with TWO
//                   PARTSUPP-LINEITEM edges — the second runs as a residual
//                   filter, exercising the multi-edge path
//   * Q5-flavored:  CUSTOMER >< ORDERS >< LINEITEM >< SUPPLIER >< PART
//                   (5-relation chain/star mix)
//   * Q14-flavored: PART >< LINEITEM >< ORDERS with a ship-date window and
//                   a grouped aggregate + top-k tail
//
// It also holds the three shapes of the throughput-test mixture
// (tpch/workload.h) over ORDERS/LINEITEM, which the serving factory and the
// Figure 1 streams lower through the planner's builder:
//   * Q1-flavored:  LINEITEM scan + ship-date filter + group-by
//   * Q6-flavored:  LINEITEM scan + range filters + one sum
//   * Q3-flavored:  LINEITEM >< ORDERS + aggregate per ship priority
//
// The specs borrow the returned TpchDatabase's storage and stats pointers:
// the database must outlive the spec and any plan built from it.

#ifndef ECODB_TPCH_QUERIES_H_
#define ECODB_TPCH_QUERIES_H_

#include <string>
#include <vector>

#include "optimizer/planner.h"
#include "tpch/generator.h"

namespace ecodb::tpch {

/// A named join-graph shape, ready for the planner.
struct JoinQueryShape {
  std::string name;
  optimizer::QuerySpec spec;
};

/// Q3-flavored 3-way chain: customers of one market segment joined to
/// their orders before a date cutoff and those orders' line items.
optimizer::QuerySpec MakeSegmentRevenueSpec(const TpchDatabase& db,
                                            const std::string& segment,
                                            int64_t order_date_cutoff);

/// Q9-flavored 4-way: small parts joined to their supply links, the
/// suppliers behind them, and matching line items on BOTH ps_partkey =
/// l_partkey and ps_suppkey = l_suppkey (the second edge is residual).
optimizer::QuerySpec MakePartSupplierProfitSpec(const TpchDatabase& db,
                                                int64_t max_part_size);

/// Q5-flavored 5-way: customer orders expanded to line items and joined
/// out to both supplier and part dimensions.
optimizer::QuerySpec MakeLocalSupplierVolumeSpec(const TpchDatabase& db,
                                                 const std::string& segment,
                                                 int64_t min_part_size);

/// Q14-flavored 3-way with a tail: parts shipped inside a date window,
/// revenue summed per brand, top brands first.
optimizer::QuerySpec MakePromoRevenueSpec(const TpchDatabase& db,
                                          int64_t ship_date_lo,
                                          int64_t ship_date_hi,
                                          uint64_t top_brands);

/// All four shapes with default parameters (bench + test sweep set).
std::vector<JoinQueryShape> MakeJoinQueryShapes(const TpchDatabase& db);

/// A borrowed table: storage plus the statistics the planner reads. Both
/// must outlive every spec built on it.
struct TableRef {
  TableRef(const storage::TableStorage* storage,
           const catalog::TableStats* stats)
      : storage(storage), stats(stats) {}
  TableRef(const TpchTable& table)  // NOLINT(runtime/explicit)
      : TableRef(table.storage.get(), &table.stats) {}
  const storage::TableStorage* storage;
  const catalog::TableStats* stats;
};

/// Query `shape` of throughput-test stream `stream` (tpch/workload.h), with
/// the substitution parameters TPC-H streams rotate. Shape 0 is the Q1
/// flavor, 1 the Q6 flavor, and any other the Q3 flavor, whose relation 0
/// is LINEITEM (so its canonical plan probes with LINEITEM and builds on
/// the filtered ORDERS).
optimizer::QuerySpec MakeThroughputSpec(TableRef orders, TableRef lineitem,
                                        int shape, int stream);

}  // namespace ecodb::tpch

#endif  // ECODB_TPCH_QUERIES_H_
