#include "oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ecobench {

namespace {

using ecodb::storage::TableStorage;

const ecodb::storage::ColumnData& Raw(const TableStorage* t,
                                      const char* name) {
  return t->RawColumn(t->schema().FindColumn(name));
}
const std::vector<int64_t>& I(const TableStorage* t, const char* name) {
  return Raw(t, name).i64;
}
const std::vector<double>& D(const TableStorage* t, const char* name) {
  return Raw(t, name).f64;
}
const std::vector<std::string>& S(const TableStorage* t, const char* name) {
  return Raw(t, name).str;
}

/// Keys of `t` whose row passes `keep`, mapped to their row position.
std::unordered_map<int64_t, size_t> KeyIndex(
    const TableStorage* t, const char* key,
    const std::function<bool(size_t)>& keep) {
  std::unordered_map<int64_t, size_t> index;
  const std::vector<int64_t>& keys = I(t, key);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keep(i)) index.emplace(keys[i], i);
  }
  return index;
}

}  // namespace

ResultFingerprint RefSegmentRevenue(const JoinTables& t,
                                    const std::string& segment,
                                    int64_t order_date_cutoff) {
  const auto& c_seg = S(t.customer, "c_mktsegment");
  const auto customers = KeyIndex(t.customer, "c_custkey", [&](size_t i) {
    return c_seg[i] == segment;
  });
  const auto& o_key = I(t.orders, "o_orderkey");
  const auto& o_cust = I(t.orders, "o_custkey");
  const auto& o_date = I(t.orders, "o_orderdate");
  const auto orders = KeyIndex(t.orders, "o_orderkey", [&](size_t i) {
    return o_date[i] < order_date_cutoff && customers.count(o_cust[i]) > 0;
  });
  const auto& l_order = I(t.lineitem, "l_orderkey");
  const auto& l_price = D(t.lineitem, "l_extendedprice");
  FingerprintBuilder b;
  for (size_t r = 0; r < l_order.size(); ++r) {
    auto o = orders.find(l_order[r]);
    if (o == orders.end()) continue;
    b.Int("c_custkey", o_cust[o->second]);
    b.Str("c_mktsegment", segment);
    b.Int("o_orderkey", o_key[o->second]);
    b.Int("o_custkey", o_cust[o->second]);
    b.Int("o_orderdate", o_date[o->second]);
    b.Int("l_orderkey", l_order[r]);
    b.Dbl("l_extendedprice", l_price[r]);
    b.EndRow();
  }
  return b.Finish();
}

ResultFingerprint RefPartSupplierProfit(const JoinTables& t,
                                        int64_t max_part_size) {
  const auto& p_size = I(t.part, "p_size");
  const auto parts = KeyIndex(t.part, "p_partkey", [&](size_t i) {
    return p_size[i] <= max_part_size;
  });
  const auto suppliers =
      KeyIndex(t.supplier, "s_suppkey", [](size_t) { return true; });
  const auto& s_nation = I(t.supplier, "s_nationkey");
  const auto& ps_part = I(t.partsupp, "ps_partkey");
  const auto& ps_supp = I(t.partsupp, "ps_suppkey");
  const auto& ps_cost = D(t.partsupp, "ps_supplycost");
  std::unordered_map<int64_t, std::vector<size_t>> links;  // by ps_partkey
  for (size_t i = 0; i < ps_part.size(); ++i) {
    if (parts.count(ps_part[i]) && suppliers.count(ps_supp[i])) {
      links[ps_part[i]].push_back(i);
    }
  }
  const auto& l_part = I(t.lineitem, "l_partkey");
  const auto& l_supp = I(t.lineitem, "l_suppkey");
  const auto& l_qty = D(t.lineitem, "l_quantity");
  const auto& l_price = D(t.lineitem, "l_extendedprice");
  FingerprintBuilder b;
  for (size_t r = 0; r < l_part.size(); ++r) {
    auto it = links.find(l_part[r]);
    if (it == links.end()) continue;
    for (size_t j : it->second) {
      if (ps_supp[j] != l_supp[r]) continue;
      const size_t p = parts.at(ps_part[j]);
      const size_t s = suppliers.at(ps_supp[j]);
      b.Int("p_partkey", ps_part[j]);
      b.Int("p_size", p_size[p]);
      b.Int("ps_partkey", ps_part[j]);
      b.Int("ps_suppkey", ps_supp[j]);
      b.Dbl("ps_supplycost", ps_cost[j]);
      b.Int("s_suppkey", ps_supp[j]);
      b.Int("s_nationkey", s_nation[s]);
      b.Int("l_partkey", l_part[r]);
      b.Int("l_suppkey", l_supp[r]);
      b.Dbl("l_quantity", l_qty[r]);
      b.Dbl("l_extendedprice", l_price[r]);
      b.EndRow();
    }
  }
  return b.Finish();
}

ResultFingerprint RefLocalSupplierVolume(const JoinTables& t,
                                         const std::string& segment,
                                         int64_t min_part_size) {
  const auto& c_seg = S(t.customer, "c_mktsegment");
  const auto customers = KeyIndex(t.customer, "c_custkey", [&](size_t i) {
    return c_seg[i] == segment;
  });
  const auto& o_key = I(t.orders, "o_orderkey");
  const auto& o_cust = I(t.orders, "o_custkey");
  const auto orders = KeyIndex(t.orders, "o_orderkey", [&](size_t i) {
    return customers.count(o_cust[i]) > 0;
  });
  const auto suppliers =
      KeyIndex(t.supplier, "s_suppkey", [](size_t) { return true; });
  const auto& s_nation = I(t.supplier, "s_nationkey");
  const auto& p_size = I(t.part, "p_size");
  const auto parts = KeyIndex(t.part, "p_partkey", [&](size_t i) {
    return p_size[i] >= min_part_size;
  });
  const auto& l_order = I(t.lineitem, "l_orderkey");
  const auto& l_part = I(t.lineitem, "l_partkey");
  const auto& l_supp = I(t.lineitem, "l_suppkey");
  const auto& l_price = D(t.lineitem, "l_extendedprice");
  FingerprintBuilder b;
  for (size_t r = 0; r < l_order.size(); ++r) {
    auto o = orders.find(l_order[r]);
    auto s = suppliers.find(l_supp[r]);
    auto p = parts.find(l_part[r]);
    if (o == orders.end() || s == suppliers.end() || p == parts.end()) {
      continue;
    }
    b.Int("c_custkey", o_cust[o->second]);
    b.Str("c_mktsegment", segment);
    b.Int("o_orderkey", o_key[o->second]);
    b.Int("o_custkey", o_cust[o->second]);
    b.Int("l_orderkey", l_order[r]);
    b.Int("l_partkey", l_part[r]);
    b.Int("l_suppkey", l_supp[r]);
    b.Dbl("l_extendedprice", l_price[r]);
    b.Int("s_suppkey", l_supp[r]);
    b.Int("s_nationkey", s_nation[s->second]);
    b.Int("p_partkey", l_part[r]);
    b.Int("p_size", p_size[p->second]);
    b.EndRow();
  }
  return b.Finish();
}

ResultFingerprint RefPromoRevenue(const JoinTables& t, int64_t ship_date_lo,
                                  int64_t ship_date_hi, uint64_t top_brands) {
  const auto parts =
      KeyIndex(t.part, "p_partkey", [](size_t) { return true; });
  const auto& p_brand = S(t.part, "p_brand");
  const auto orders =
      KeyIndex(t.orders, "o_orderkey", [](size_t) { return true; });
  const auto& l_order = I(t.lineitem, "l_orderkey");
  const auto& l_part = I(t.lineitem, "l_partkey");
  const auto& l_price = D(t.lineitem, "l_extendedprice");
  const auto& l_ship = I(t.lineitem, "l_shipdate");
  std::map<std::string, std::pair<double, int64_t>> groups;
  for (size_t r = 0; r < l_order.size(); ++r) {
    if (l_ship[r] < ship_date_lo || l_ship[r] >= ship_date_hi) continue;
    auto p = parts.find(l_part[r]);
    if (p == parts.end() || orders.count(l_order[r]) == 0) continue;
    auto& g = groups[p_brand[p->second]];
    g.first += l_price[r];
    g.second += 1;
  }
  std::vector<std::pair<std::string, std::pair<double, int64_t>>> sorted(
      groups.begin(), groups.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
    return x.second.first > y.second.first;
  });
  if (sorted.size() > top_brands) sorted.resize(top_brands);
  FingerprintBuilder b;
  for (const auto& [brand, g] : sorted) {
    b.Str("p_brand", brand);
    b.Dbl("revenue", g.first);
    b.Int("line_count", g.second);
    b.EndRow();
  }
  return b.Finish();
}

ResultFingerprint RefPricingSummary(const TableStorage* li,
                                    int64_t ship_date_cutoff) {
  const auto& flag = S(li, "l_returnflag");
  const auto& qty = D(li, "l_quantity");
  const auto& price = D(li, "l_extendedprice");
  const auto& disc = D(li, "l_discount");
  const auto& ship = I(li, "l_shipdate");
  struct Group {
    double qty = 0, price = 0, disc_price = 0;
    int64_t count = 0;
  };
  std::map<std::string, Group> groups;
  for (size_t r = 0; r < ship.size(); ++r) {
    if (ship[r] > ship_date_cutoff) continue;
    Group& g = groups[flag[r]];
    g.qty += qty[r];
    g.price += price[r];
    g.disc_price += price[r] * (1.0 - disc[r]);
    g.count += 1;
  }
  FingerprintBuilder b;
  for (const auto& [name, g] : groups) {
    b.Str("l_returnflag", name);
    b.Dbl("sum_qty", g.qty);
    b.Dbl("sum_base_price", g.price);
    b.Dbl("sum_disc_price", g.disc_price);
    b.Dbl("avg_qty", g.qty / static_cast<double>(g.count));
    b.Int("count_order", g.count);
    b.EndRow();
  }
  return b.Finish();
}

ResultFingerprint RefRevenue(const TableStorage* li, int64_t date_lo,
                             int64_t date_hi, double discount_lo,
                             double discount_hi, double quantity_cap) {
  const auto& qty = D(li, "l_quantity");
  const auto& price = D(li, "l_extendedprice");
  const auto& disc = D(li, "l_discount");
  const auto& ship = I(li, "l_shipdate");
  double revenue = 0.0;
  for (size_t r = 0; r < ship.size(); ++r) {
    if (ship[r] >= date_lo && ship[r] < date_hi && disc[r] >= discount_lo &&
        disc[r] <= discount_hi && qty[r] < quantity_cap) {
      revenue += price[r] * disc[r];
    }
  }
  FingerprintBuilder b;
  b.Dbl("revenue", revenue);
  b.EndRow();
  return b.Finish();
}

ResultFingerprint RefShipWindow(const TableStorage* li, int64_t lo, int64_t hi,
                                std::optional<uint64_t> limit) {
  const auto& order = I(li, "l_orderkey");
  const auto& price = D(li, "l_extendedprice");
  const auto& ship = I(li, "l_shipdate");
  std::vector<size_t> rows;
  for (size_t r = 0; r < ship.size(); ++r) {
    if (ship[r] >= lo && ship[r] < hi) rows.push_back(r);
  }
  FingerprintBuilder b;
  if (limit) {
    std::vector<double> prices;
    for (size_t r : rows) prices.push_back(price[r]);
    std::sort(prices.begin(), prices.end(), std::greater<double>());
    if (prices.size() > *limit) prices.resize(*limit);
    for (double p : prices) {
      b.Dbl("l_extendedprice", p);
      b.EndRow();
    }
    return b.Finish();
  }
  for (size_t r : rows) {
    b.Int("l_orderkey", order[r]);
    b.Dbl("l_extendedprice", price[r]);
    b.Int("l_shipdate", ship[r]);
    b.EndRow();
  }
  return b.Finish();
}

}  // namespace ecobench
