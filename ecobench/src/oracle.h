// Reference answers for the join_mix and scan_mix queries, computed with
// plain hash maps and loops over the loaded tables' raw columns. They share
// no code with the engine's operators, expressions or planner, so a wrong
// row from any of those shows up as a fingerprint mismatch at any seed.

#ifndef ECOBENCH_ORACLE_H_
#define ECOBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "bench.h"
#include "storage/table_storage.h"

namespace ecobench {

struct JoinTables {
  const ecodb::storage::TableStorage* customer = nullptr;
  const ecodb::storage::TableStorage* orders = nullptr;
  const ecodb::storage::TableStorage* lineitem = nullptr;
  const ecodb::storage::TableStorage* part = nullptr;
  const ecodb::storage::TableStorage* supplier = nullptr;
  const ecodb::storage::TableStorage* partsupp = nullptr;
};

// tpch::MakeSegmentRevenueSpec: every projected column of the 3-way join.
ResultFingerprint RefSegmentRevenue(const JoinTables& t,
                                    const std::string& segment,
                                    int64_t order_date_cutoff);
// tpch::MakePartSupplierProfitSpec.
ResultFingerprint RefPartSupplierProfit(const JoinTables& t,
                                        int64_t max_part_size);
// tpch::MakeLocalSupplierVolumeSpec.
ResultFingerprint RefLocalSupplierVolume(const JoinTables& t,
                                         const std::string& segment,
                                         int64_t min_part_size);
// tpch::MakePromoRevenueSpec: (p_brand, revenue, line_count), top brands.
ResultFingerprint RefPromoRevenue(const JoinTables& t, int64_t ship_date_lo,
                                  int64_t ship_date_hi, uint64_t top_brands);

// Q1 grouped aggregate over l_shipdate <= cutoff.
ResultFingerprint RefPricingSummary(const ecodb::storage::TableStorage* li,
                                    int64_t ship_date_cutoff);
// Q6 filter-sum.
ResultFingerprint RefRevenue(const ecodb::storage::TableStorage* li,
                             int64_t date_lo, int64_t date_hi,
                             double discount_lo, double discount_hi,
                             double quantity_cap);
// Rows with l_shipdate in [lo, hi) ordered by l_extendedprice descending.
// With a limit only the prices are fingerprinted, so ties at the cut do not
// matter; without one, every projected column is.
ResultFingerprint RefShipWindow(const ecodb::storage::TableStorage* li,
                                int64_t lo, int64_t hi,
                                std::optional<uint64_t> limit);

}  // namespace ecobench

#endif  // ECOBENCH_ORACLE_H_
