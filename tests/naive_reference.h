// Naive reference evaluators for the operator tests.
//
// Each helper answers a query the slow, obvious way — materialize every
// row, std::stable_sort with CompareRowsOnKeys, truncate to k, fold groups
// in a std::map — so the engine's morsel operators are checked against an
// implementation that shares none of their run formation, merging,
// partitioning or morsel bookkeeping. Results come back as rows of Values
// in output order, the shape the tests already compare (HashJoin returns a
// batch, for lane-by-lane comparison).

#ifndef ECODB_TESTS_NAIVE_REFERENCE_H_
#define ECODB_TESTS_NAIVE_REFERENCE_H_

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/joins.h"
#include "exec/operator.h"
#include "exec/sort_limit.h"
#include "storage/table_storage.h"

namespace ecodb::exec::naive {

using Rows = std::vector<std::vector<Value>>;

/// Every row of `table` (all columns, storage order). A non-null `filter`
/// (bound here; pass a fresh expression) keeps only the rows it accepts.
inline RecordBatch Materialize(const storage::TableStorage& table,
                               const ExprPtr& filter = nullptr) {
  RecordBatch all(table.schema());
  for (int c = 0; c < table.schema().num_columns(); ++c) {
    all.column(static_cast<size_t>(c)) = table.RawColumn(c);
  }
  EXPECT_TRUE(all.SealRows(table.row_count()).ok());
  if (filter == nullptr) return all;
  EXPECT_TRUE(filter->Bind(all.schema()).ok());
  RecordBatch kept(table.schema());
  for (size_t r = 0; r < all.num_rows(); ++r) {
    RecordBatch one(table.schema());
    one.AppendRowFrom(all, r);
    auto mask = filter->EvaluateMask(one);
    EXPECT_TRUE(mask.ok());
    if (mask.ok() && (*mask)[0] != 0) kept.AppendRowFrom(all, r);
  }
  return kept;
}

/// `batch`'s rows as Values, in order.
inline Rows ToRows(const RecordBatch& batch) {
  Rows rows;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      row.push_back(batch.GetValue(r, c));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The first `k` rows of a stable sort of `batch` on `keys`.
inline Rows SortLimit(const RecordBatch& batch,
                      const std::vector<SortKey>& keys,
                      size_t k = std::numeric_limits<size_t>::max()) {
  std::vector<int> key_idx;
  EXPECT_TRUE(ResolveSortKeys(batch.schema(), keys, &key_idx).ok());
  std::vector<size_t> order(batch.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CompareRowsOnKeys(batch, a, batch, b, keys, key_idx) < 0;
  });
  order.resize(std::min(k, order.size()));
  RecordBatch sorted(batch.schema());
  for (size_t pos : order) sorted.AppendRowFrom(batch, pos);
  return ToRows(sorted);
}

/// GROUP BY `group_by` over `batch`, folding each row into a std::map
/// entry keyed by the group's encoded key (so groups come out in the
/// engine's documented emission order). Output rows are the group keys then
/// one value per aggregate, as HashAggregateOp emits them. The aggregate
/// inputs are bound here; pass fresh expressions.
inline Rows GroupBy(const RecordBatch& batch,
                    const std::vector<std::string>& group_by,
                    std::vector<AggregateItem> aggregates) {
  struct Group {
    std::vector<Value> keys;
    std::vector<double> sum, min, max;
    std::vector<int64_t> count;
  };
  std::vector<int> key_cols;
  for (const std::string& name : group_by) {
    key_cols.push_back(batch.schema().FindColumn(name));
  }
  std::vector<ColumnData> inputs(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (aggregates[a].input == nullptr) continue;
    EXPECT_TRUE(aggregates[a].input->Bind(batch.schema()).ok());
    auto lane = aggregates[a].input->Evaluate(batch);
    EXPECT_TRUE(lane.ok());
    if (lane.ok()) inputs[a] = std::move(*lane);
  }
  const size_t n_aggs = aggregates.size();
  std::map<std::string, Group> groups;
  std::string key;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    EncodeGroupKey(batch, key_cols, r, &key);
    auto [it, inserted] = groups.try_emplace(key);
    Group& g = it->second;
    if (inserted) {
      for (int c : key_cols) {
        g.keys.push_back(batch.GetValue(r, static_cast<size_t>(c)));
      }
      g.sum.assign(n_aggs, 0.0);
      g.min.assign(n_aggs, std::numeric_limits<double>::infinity());
      g.max.assign(n_aggs, -std::numeric_limits<double>::infinity());
      g.count.assign(n_aggs, 0);
    }
    for (size_t a = 0; a < n_aggs; ++a) {
      double v = 0.0;
      if (aggregates[a].input != nullptr) {
        v = inputs[a].type == catalog::DataType::kDouble
                ? inputs[a].f64[r]
                : static_cast<double>(inputs[a].i64[r]);
      }
      g.sum[a] += v;
      g.min[a] = std::min(g.min[a], v);
      g.max[a] = std::max(g.max[a], v);
      g.count[a] += 1;
    }
  }
  if (groups.empty() && group_by.empty()) {
    Group& g = groups[""];
    g.sum.assign(n_aggs, 0.0);
    g.count.assign(n_aggs, 0);
  }
  Rows rows;
  for (const auto& [k, g] : groups) {
    std::vector<Value> row = g.keys;
    for (size_t a = 0; a < n_aggs; ++a) {
      const bool any = g.count[a] > 0;
      switch (aggregates[a].func) {
        case AggFunc::kSum:
          row.push_back(Value::Double(g.sum[a]));
          break;
        case AggFunc::kCount:
          row.push_back(Value::Int64(g.count[a]));
          break;
        case AggFunc::kMin:
          row.push_back(Value::Double(any ? g.min[a] : 0.0));
          break;
        case AggFunc::kMax:
          row.push_back(Value::Double(any ? g.max[a] : 0.0));
          break;
        case AggFunc::kAvg:
          row.push_back(Value::Double(
              any ? g.sum[a] / static_cast<double>(g.count[a]) : 0.0));
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Equi-join of `probe` with `build` on one key column each, folded
/// through a std::unordered_multimap: each probe row, in order, joined with
/// its matching build rows in descending build-row order (HashJoinOp's
/// order contract, DESIGN §6; libstdc++'s equal_range already yields it,
/// and the sort pins it whatever the library). Columns follow
/// JoinedSchema.
inline RecordBatch HashJoin(const RecordBatch& probe,
                            const RecordBatch& build,
                            const std::string& probe_key,
                            const std::string& build_key) {
  const size_t pk = static_cast<size_t>(probe.schema().FindColumn(probe_key));
  const size_t bk = static_cast<size_t>(build.schema().FindColumn(build_key));
  RecordBatch out(JoinedSchema(probe.schema(), build.schema()));
  auto fold = [&](const auto& keys_of_build, const auto& keys_of_probe) {
    using Key = typename std::decay_t<decltype(keys_of_build)>::value_type;
    std::unordered_multimap<Key, size_t> index;
    for (size_t r = 0; r < build.num_rows(); ++r) {
      index.emplace(keys_of_build[r], r);
    }
    for (size_t r = 0; r < probe.num_rows(); ++r) {
      std::vector<size_t> matches;
      auto [lo, hi] = index.equal_range(keys_of_probe[r]);
      for (auto it = lo; it != hi; ++it) matches.push_back(it->second);
      std::sort(matches.rbegin(), matches.rend());
      for (size_t b : matches) {
        std::vector<Value> row;
        for (size_t c = 0; c < probe.num_columns(); ++c) {
          row.push_back(probe.GetValue(r, c));
        }
        for (size_t c = 0; c < build.num_columns(); ++c) {
          row.push_back(build.GetValue(b, c));
        }
        EXPECT_TRUE(out.AppendRow(row).ok());
      }
    }
  };
  if (build.column(bk).type == catalog::DataType::kString) {
    fold(build.column(bk).str, probe.column(pk).str);
  } else {
    fold(build.column(bk).i64, probe.column(pk).i64);
  }
  return out;
}

/// Replays a materialized batch in `batch_rows`-row batches and charges
/// nothing. It is not a MorselSource, so a consumer above it takes its
/// coordinator-drain path — the operators' one non-morsel code path.
class ReplayOp final : public Operator {
 public:
  explicit ReplayOp(RecordBatch rows, size_t batch_rows = 1000)
      : rows_(std::move(rows)), batch_rows_(batch_rows) {}

  const catalog::Schema& output_schema() const override {
    return rows_.schema();
  }
  Status Open(ExecContext*) override {
    cursor_ = 0;
    return Status::OK();
  }
  Status Next(RecordBatch* out, bool* eos) override {
    *eos = cursor_ >= rows_.num_rows();
    if (*eos) return Status::OK();
    const size_t end = std::min(rows_.num_rows(), cursor_ + batch_rows_);
    RecordBatch batch(rows_.schema());
    for (; cursor_ < end; ++cursor_) batch.AppendRowFrom(rows_, cursor_);
    *out = std::move(batch);
    return Status::OK();
  }
  void Close() override {}

 private:
  RecordBatch rows_;
  size_t batch_rows_;
  size_t cursor_ = 0;
};

}  // namespace ecodb::exec::naive

#endif  // ECODB_TESTS_NAIVE_REFERENCE_H_
