// Edge-case tests for the top-k operators (TopKOp, TopKOp) and
// LimitOp: limit 0, limit > n, limits straddling batch boundaries, empty
// children, all-equal keys (stability), and exactly-once spill accounting
// across Open retries.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/filter.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "exec/topk.h"
#include "naive_reference.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

class TopKTest : public ::testing::Test {
 protected:
  TopKTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  /// A table with duplicated keys and a unique payload column, so any
  /// ordering difference — including tie-break order — shows up in rows.
  std::unique_ptr<storage::TableStorage> MakeTable(int n, int key_ndv) {
    Schema schema({Column{"key", DataType::kInt64, 8},
                   Column{"payload", DataType::kInt64, 8}});
    auto table = std::make_unique<storage::TableStorage>(
        1, schema, storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(2);
    cols[0].type = DataType::kInt64;
    cols[1].type = DataType::kInt64;
    for (int i = 0; i < n; ++i) {
      cols[0].i64.push_back(key_ndv > 0 ? (i * 2654435761LL) % key_ndv : 0);
      cols[1].i64.push_back(i);
    }
    EXPECT_TRUE(table->Append(cols).ok());
    return table;
  }

  struct RunOutcome {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };

  RunOutcome Run(Operator* root, int dop, size_t batch_rows = 4096,
                 size_t morsel_rows = 1024) {
    ExecOptions options;
    options.dop = dop;
    options.batch_rows = batch_rows;
    options.morsel_rows = morsel_rows;
    ExecContext ctx(platform_.get(), options);
    auto result = CollectAll(root, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    RunOutcome out;
    out.stats = ctx.Finish();
    if (!result.ok()) return out;
    const size_t ncols = static_cast<size_t>(result->schema.num_columns());
    for (const auto& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<Value> row;
        row.reserve(ncols);
        for (size_t c = 0; c < ncols; ++c) row.push_back(batch.GetValue(r, c));
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
};

std::vector<SortKey> KeyAsc() { return {{"key", true}}; }

TEST_F(TopKTest, LimitZeroEmitsNothing) {
  auto table = MakeTable(500, 17);
  for (int dop : {1, 4}) {
    TopKOp topk(std::make_unique<TableScanOp>(table.get()), KeyAsc(), 0);
    EXPECT_TRUE(Run(&topk, dop, 4096, 128).rows.empty()) << "dop=" << dop;
  }

  LimitOp limit(std::make_unique<TableScanOp>(table.get()), 0);
  EXPECT_TRUE(Run(&limit, 1).rows.empty());
}

TEST_F(TopKTest, LimitGreaterThanInputReturnsFullSortedOutput) {
  auto table = MakeTable(300, 11);
  const naive::Rows expected =
      naive::SortLimit(naive::Materialize(*table), KeyAsc());
  ASSERT_EQ(expected.size(), 300u);

  for (int dop : {1, 4}) {
    TopKOp topk(std::make_unique<TableScanOp>(table.get()), KeyAsc(), 5000);
    EXPECT_EQ(Run(&topk, dop, 4096, 64).rows, expected) << "dop=" << dop;
  }

  LimitOp limit(std::make_unique<TableScanOp>(table.get()), 5000);
  EXPECT_EQ(Run(&limit, 1).rows.size(), 300u);
}

TEST_F(TopKTest, LimitStraddlingBatchBoundaries) {
  auto table = MakeTable(1000, 37);
  const RecordBatch input = naive::Materialize(*table);
  // 100-row output batches; limits cutting before, on, and after a batch
  // boundary all truncate exactly.
  for (const size_t k : {99u, 100u, 101u, 250u}) {
    const naive::Rows expected = naive::SortLimit(input, KeyAsc(), k);
    ASSERT_EQ(expected.size(), k);

    LimitOp sort_limit(std::make_unique<SortOp>(
                           std::make_unique<TableScanOp>(table.get()),
                           KeyAsc()),
                       k);
    EXPECT_EQ(Run(&sort_limit, 1, /*batch_rows=*/100, 128).rows, expected)
        << "k=" << k;

    for (int dop : {1, 4}) {
      TopKOp topk(std::make_unique<TableScanOp>(table.get()), KeyAsc(), k);
      EXPECT_EQ(Run(&topk, dop, /*batch_rows=*/100, 128).rows, expected)
          << "k=" << k << " dop=" << dop;
    }
  }
}

TEST_F(TopKTest, EmptyChildYieldsEmptyOutput) {
  auto table = MakeTable(200, 13);
  const auto none = [] { return Col("payload") < Lit(int64_t{-1}); };
  for (int dop : {1, 4}) {
    TopKOp topk(std::make_unique<TableScanOp>(
                    table.get(), std::vector<std::string>{}, none(), none()),
                KeyAsc(), 10);
    const RunOutcome got = Run(&topk, dop, 4096, 64);
    EXPECT_TRUE(got.rows.empty()) << "dop=" << dop;
    EXPECT_EQ(topk.num_runs(), 0u) << "dop=" << dop;
  }
}

TEST_F(TopKTest, AllEqualKeysKeepFirstKInputRows) {
  // key is constant, so stability demands the output be the first k input
  // rows in input order — payload 0..k-1.
  auto table = MakeTable(800, /*key_ndv=*/0);
  const size_t k = 25;

  for (int dop : {1, 2, 4, 8}) {
    TopKOp topk(std::make_unique<TableScanOp>(table.get()), KeyAsc(), k);
    const RunOutcome got = Run(&topk, dop, 4096, 128);
    ASSERT_EQ(got.rows.size(), k) << "dop=" << dop;
    for (size_t r = 0; r < k; ++r) {
      EXPECT_EQ(got.rows[r][1].i64, static_cast<int64_t>(r)) << "dop=" << dop;
    }
  }
}

TEST_F(TopKTest, SerialChildFallsBackToSingleRun) {
  auto table = MakeTable(600, 19);
  // FilterOp is not a MorselSource, so the operator drains it on the
  // coordinator into one candidate run over the whole input.
  TopKOp topk(
      std::make_unique<FilterOp>(std::make_unique<TableScanOp>(table.get()),
                                 Col("payload") < Lit(int64_t{400})),
      KeyAsc(), 30);
  const RunOutcome got = Run(&topk, 4);
  EXPECT_EQ(topk.num_runs(), 1u);
  ASSERT_EQ(got.rows.size(), 30u);
  for (size_t r = 1; r < got.rows.size(); ++r) {
    EXPECT_LE(got.rows[r - 1][0].i64, got.rows[r][0].i64);
  }
}

TEST_F(TopKTest, MissingSortColumnIsNotFound) {
  auto table = MakeTable(50, 7);
  TopKOp topk(std::make_unique<TableScanOp>(table.get()),
              {{"no_such_column", true}}, 5);
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_EQ(topk.Open(&ctx).code(), StatusCode::kNotFound);
}

// --- Exactly-once accounting across Open retries ------------------------------

/// Emits `rows` rows in fixed-size batches; fails the drain once at
/// `fail_at_batch` on the first Open, then replays cleanly on retry.
class FlakyRowsOp final : public Operator {
 public:
  FlakyRowsOp(int rows, int batch_rows, int fail_at_batch)
      : schema_({Column{"k", DataType::kInt64, 8}}),
        rows_(rows),
        batch_rows_(batch_rows),
        fail_at_batch_(fail_at_batch) {}

  const catalog::Schema& output_schema() const override { return schema_; }

  Status Open(ExecContext*) override {
    ++opens_;
    emitted_ = 0;
    batch_index_ = 0;
    return Status::OK();
  }

  Status Next(RecordBatch* out, bool* eos) override {
    if (opens_ == 1 && batch_index_ == fail_at_batch_) {
      return Status::Internal("transient source failure");
    }
    if (emitted_ >= rows_) {
      *eos = true;
      return Status::OK();
    }
    RecordBatch batch(schema_);
    storage::ColumnData& lane = batch.column(0);
    const int take = std::min(batch_rows_, rows_ - emitted_);
    for (int i = 0; i < take; ++i) {
      lane.i64.push_back(static_cast<int64_t>((emitted_ + i) * 7919 % rows_));
    }
    ECODB_RETURN_IF_ERROR(batch.SealRows(static_cast<size_t>(take)));
    emitted_ += take;
    ++batch_index_;
    *eos = false;
    *out = std::move(batch);
    return Status::OK();
  }

  void Close() override {}

 private:
  catalog::Schema schema_;
  int rows_;
  int batch_rows_;
  int fail_at_batch_;
  int opens_ = 0;
  int emitted_ = 0;
  int batch_index_ = 0;
};

TEST_F(TopKTest, TopKChargesSpillExactlyOnceAcrossOpenRetry) {
  // k = n, so the kept candidate set is all 1000 rows x 8 B, over the 2 KiB
  // budget. The first Open fails at batch 6, mid-drain: candidates are
  // billed only once their run has formed, so the failed attempt bills no
  // spill, and the retry bills every kept byte exactly once.
  TopKOp topk(std::make_unique<FlakyRowsOp>(1000, 100, 6), {{"k", true}},
              1000, /*memory_budget_bytes=*/2048, ssd_.get());
  ExecContext ctx(platform_.get(), ExecOptions{});
  EXPECT_EQ(topk.Open(&ctx).code(), StatusCode::kInternal);
  EXPECT_FALSE(topk.spilled());

  ASSERT_TRUE(topk.Open(&ctx).ok());
  EXPECT_TRUE(topk.spilled());
  RecordBatch batch;
  bool eos = false;
  uint64_t rows = 0;
  int64_t prev = INT64_MIN;
  while (true) {
    ASSERT_TRUE(topk.Next(&batch, &eos).ok());
    if (eos) break;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      EXPECT_LE(prev, batch.column(0).i64[r]);
      prev = batch.column(0).i64[r];
      ++rows;
    }
  }
  topk.Close();
  EXPECT_EQ(rows, 1000u);

  // Exactly-once: all 8000 kept bytes written once and read once.
  const QueryStats stats = ctx.Finish();
  EXPECT_EQ(stats.io_bytes, 2u * 8000u);
}

TEST_F(TopKTest, ParallelTopKChargesSpillExactlyOnceAcrossOpenRetry) {
  auto table = MakeTable(5000, 101);
  const uint64_t row_width =
      static_cast<uint64_t>(table->schema().RowWidthBytes());

  // Scan-only I/O baseline: no budget, so no spill traffic.
  TopKOp in_memory(std::make_unique<TableScanOp>(table.get()), KeyAsc(),
                   5000);
  const RunOutcome base = Run(&in_memory, 4, 4096, 512);

  // k = n keeps every candidate row, so the candidate set (5000 x 16 B)
  // crosses the 4 KiB budget and spills. The first Open completes before a
  // downstream failure forces a second Open of the same tree: the table is
  // re-scanned (and re-billed), the candidate runs are not re-billed.
  TopKOp topk(std::make_unique<TableScanOp>(table.get()), KeyAsc(), 5000,
              /*memory_budget_bytes=*/4096, ssd_.get());
  ExecOptions options;
  options.dop = 4;
  options.batch_rows = 4096;
  options.morsel_rows = 512;
  ExecContext ctx(platform_.get(), options);
  ASSERT_TRUE(topk.Open(&ctx).ok());
  EXPECT_TRUE(topk.spilled());
  ASSERT_TRUE(topk.Open(&ctx).ok());  // the retry

  RecordBatch batch;
  bool eos = false;
  std::vector<std::vector<Value>> rows;
  while (true) {
    ASSERT_TRUE(topk.Next(&batch, &eos).ok());
    if (eos) break;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < 2; ++c) row.push_back(batch.GetValue(r, c));
      rows.push_back(std::move(row));
    }
  }
  topk.Close();
  EXPECT_EQ(rows, base.rows);

  const QueryStats stats = ctx.Finish();
  EXPECT_EQ(stats.io_bytes,
            2 * base.stats.io_bytes + 2u * 5000u * row_width);
}

TEST_F(TopKTest, SmallKNeverSpillsUnderTightBudget) {
  // The whole point of the fusion: a k-row working set per run fits
  // budgets the full sort cannot. 5 runs x 10 rows x 16 B << 2 KiB.
  auto table = MakeTable(5000, 101);
  const naive::Rows expected =
      naive::SortLimit(naive::Materialize(*table), KeyAsc(), 10);
  for (int dop : {1, 4}) {
    TopKOp topk(std::make_unique<TableScanOp>(table.get()), KeyAsc(), 10,
                /*memory_budget_bytes=*/2048, ssd_.get());
    const RunOutcome got = Run(&topk, dop, 4096, 1024);
    EXPECT_EQ(got.rows, expected) << "dop=" << dop;
    EXPECT_FALSE(topk.spilled()) << "dop=" << dop;
  }
}

TEST_F(TopKTest, LimitOpResetsEmittedCountAcrossOpenRetry) {
  // First drain dies mid-stream; on the retried Open, LimitOp must emit a
  // full fresh quota, not the remainder of the failed attempt.
  LimitOp limit(std::make_unique<FlakyRowsOp>(300, 100, 2), 250);
  ExecContext ctx(platform_.get(), ExecOptions{});
  ASSERT_TRUE(limit.Open(&ctx).ok());
  RecordBatch batch;
  bool eos = false;
  ASSERT_TRUE(limit.Next(&batch, &eos).ok());  // batch 0 passes
  ASSERT_TRUE(limit.Next(&batch, &eos).ok());  // batch 1 passes
  EXPECT_EQ(limit.Next(&batch, &eos).code(), StatusCode::kInternal);

  ASSERT_TRUE(limit.Open(&ctx).ok());
  uint64_t rows = 0;
  while (true) {
    ASSERT_TRUE(limit.Next(&batch, &eos).ok());
    if (eos) break;
    rows += batch.num_rows();
  }
  limit.Close();
  ctx.Finish();
  EXPECT_EQ(rows, 250u);
}

}  // namespace
}  // namespace ecodb::exec
