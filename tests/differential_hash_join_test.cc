// Differential test for HashJoinOp's flat hash table: seeded inputs joined
// through the morsel-parallel probe at dop 1/2/4/8 and through the serial
// (coordinator-drain) probe, against naive::HashJoin, a std::unordered_multimap
// fold (the DESIGN §11 dual-path pattern).
//
// Every case asserts:
//   1. the joined lanes are byte-identical to the oracle's, in its order
//      (probe order, then descending build row per probe row);
//   2. the modeled charges are exact: the serial path's instructions equal
//      the cost-model formula, the morsel path adds exactly the scan's own
//      charges at every dop, and build_bytes() and the DRAM charge match the
//      nominal build size.

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/joins.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "naive_reference.h"
#include "power/platform.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::exec {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

/// One join input: the key lanes of both sides (i64 for int64/date keys,
/// str for string keys). Payload columns are derived from the row index.
struct JoinCase {
  DataType key_type = DataType::kInt64;
  ColumnData probe_keys;
  ColumnData build_keys;
};

JoinCase IntCase(std::vector<int64_t> probe, std::vector<int64_t> build,
                 DataType type = DataType::kInt64) {
  JoinCase c;
  c.key_type = type;
  c.probe_keys.type = c.build_keys.type = type;
  c.probe_keys.i64 = std::move(probe);
  c.build_keys.i64 = std::move(build);
  return c;
}

JoinCase StringCase(std::vector<std::string> probe,
                    std::vector<std::string> build) {
  JoinCase c;
  c.key_type = DataType::kString;
  c.probe_keys.type = c.build_keys.type = DataType::kString;
  c.probe_keys.str = std::move(probe);
  c.build_keys.str = std::move(build);
  return c;
}

std::vector<int64_t> Draw(Rng* rng, size_t n, int64_t lo, int64_t hi) {
  std::vector<int64_t> v;
  for (size_t i = 0; i < n; ++i) v.push_back(rng->Uniform(lo, hi));
  return v;
}

/// Probe rows: key, a double and a string payload.
RecordBatch ProbeRows(const ColumnData& keys) {
  RecordBatch b(Schema({Column{"k", keys.type, 8},
                        Column{"p", DataType::kDouble, 8},
                        Column{"tag", DataType::kString, 4}}));
  b.column(0) = keys;
  for (size_t r = 0; r < keys.size(); ++r) {
    b.column(1).f64.push_back(static_cast<double>(r) * 0.25);
    b.column(2).str.push_back("p" + std::to_string(r % 7));
  }
  EXPECT_TRUE(b.SealRows(keys.size()).ok());
  return b;
}

/// Build rows: key, an int64 and a string payload.
RecordBatch BuildRows(const ColumnData& keys) {
  RecordBatch b(Schema({Column{"k", keys.type, 8},
                        Column{"q", DataType::kInt64, 8},
                        Column{"note", DataType::kString, 4}}));
  b.column(0) = keys;
  for (size_t r = 0; r < keys.size(); ++r) {
    b.column(1).i64.push_back(static_cast<int64_t>(r));
    b.column(2).str.push_back(r % 5 ? "b" + std::to_string(r % 5) : "");
  }
  EXPECT_TRUE(b.SealRows(keys.size()).ok());
  return b;
}

/// build_bytes()'s nominal size: the materialized lanes plus 32 bytes of
/// table overhead per row.
uint64_t NominalBuildBytes(const RecordBatch& build) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < build.num_columns(); ++c) {
    const ColumnData& lane = build.column(c);
    bytes += lane.i64.size() * 8 + lane.f64.size() * 8;
    for (const std::string& s : lane.str) bytes += s.size() + 16;
  }
  return bytes + build.num_rows() * 32;
}

/// Fails unless every lane of `got` is byte-identical to `want`'s.
void ExpectSameLanes(const RecordBatch& got, const RecordBatch& want,
                     const std::string& where) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << where;
  ASSERT_EQ(got.num_columns(), want.num_columns()) << where;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ColumnData& g = got.column(c);
    const ColumnData& w = want.column(c);
    ASSERT_EQ(g.type, w.type) << where << " column " << c;
    ASSERT_EQ(g.size(), w.size()) << where << " column " << c;
    if (w.size() == 0) continue;  // memcmp may not take a null lane
    if (w.type == DataType::kString) {
      EXPECT_EQ(g.str, w.str) << where << " column " << c;
    } else if (w.type == DataType::kDouble) {
      EXPECT_EQ(std::memcmp(g.f64.data(), w.f64.data(), w.f64.size() * 8), 0)
          << where << " column " << c;
    } else {
      EXPECT_EQ(std::memcmp(g.i64.data(), w.i64.data(), w.i64.size() * 8), 0)
          << where << " column " << c;
    }
  }
}

class DifferentialHashJoinTest : public ::testing::Test {
 protected:
  DifferentialHashJoinTest() : platform_(power::MakeProportionalPlatform()) {}

  struct Outcome {
    RecordBatch rows;
    QueryStats stats;
  };

  Outcome Run(Operator* root, int dop) {
    ExecOptions options;
    options.dop = dop;
    options.morsel_rows = 1024;
    ExecContext ctx(platform_.get(), options);
    auto result = CollectAll(root, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    Outcome out;
    out.stats = ctx.Finish();
    if (!result.ok()) return out;
    out.rows = RecordBatch(result->schema);
    for (const RecordBatch& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        out.rows.AppendRowFrom(batch, r);
      }
    }
    return out;
  }

  /// Joins `c` on every path and checks rows and charges against the
  /// oracle and the cost model.
  void Check(const JoinCase& c, const std::string& name) {
    SCOPED_TRACE(name);
    const RecordBatch probe = ProbeRows(c.probe_keys);
    const RecordBatch build = BuildRows(c.build_keys);
    const RecordBatch want = naive::HashJoin(probe, build, "k", "k");
    const CostConstants costs = ExecOptions{}.costs;
    const double join_instructions =
        costs.hash_build_per_row * static_cast<double>(build.num_rows()) +
        costs.hash_probe_per_row * static_cast<double>(probe.num_rows()) +
        costs.output_per_row * static_cast<double>(want.num_rows());
    const uint64_t build_bytes = NominalBuildBytes(build);
    double build_dram_joules = 0.0;
    {
      ExecContext ctx(platform_.get(), ExecOptions{});
      ctx.ChargeDram(build_bytes);
      build_dram_joules = ctx.Finish().dram_joules;
    }

    // Serial path: the probe child is not a MorselSource and charges
    // nothing, so the join's own charges are the whole bill.
    {
      HashJoinOp join(std::make_unique<naive::ReplayOp>(probe),
                      std::make_unique<naive::ReplayOp>(build), "k", "k");
      const Outcome got = Run(&join, 1);
      ExpectSameLanes(got.rows, want, "serial");
      EXPECT_EQ(got.stats.cpu_instructions, join_instructions);
      EXPECT_EQ(got.stats.dram_joules, build_dram_joules);
      EXPECT_EQ(join.build_bytes(), build_bytes);
    }

    // Morsel path over a memory-resident copy of the probe rows: the
    // join adds exactly its own charges to the scan's, at every dop.
    storage::TableStorage table(1, probe.schema(),
                                storage::TableLayout::kColumn, nullptr);
    std::vector<ColumnData> cols;
    for (size_t i = 0; i < probe.num_columns(); ++i) {
      cols.push_back(probe.column(i));
    }
    ASSERT_TRUE(table.Append(cols).ok());
    for (int dop : {1, 2, 4, 8}) {
      const std::string where = "dop " + std::to_string(dop);
      TableScanOp scan(&table);
      const QueryStats scan_stats = Run(&scan, dop).stats;
      HashJoinOp join(std::make_unique<TableScanOp>(&table),
                      std::make_unique<naive::ReplayOp>(build), "k", "k");
      const Outcome got = Run(&join, dop);
      ExpectSameLanes(got.rows, want, where);
      EXPECT_EQ(got.stats.cpu_instructions,
                scan_stats.cpu_instructions + join_instructions)
          << where;
      EXPECT_EQ(got.stats.dram_joules,
                scan_stats.dram_joules + build_dram_joules)
          << where;
      EXPECT_EQ(join.build_bytes(), build_bytes) << where;
    }
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
};

TEST_F(DifferentialHashJoinTest, HeavyDuplicates) {
  Rng rng(1701);
  Check(IntCase(Draw(&rng, 5000, -10, 60), Draw(&rng, 3000, 0, 50)),
        "3000 build rows over 50 keys");
}

TEST_F(DifferentialHashJoinTest, OneKeyRepeatedTenThousandTimes) {
  Rng rng(1702);
  std::vector<int64_t> build(10000, 7);
  for (int64_t k : Draw(&rng, 500, 0, 400)) build.push_back(k);
  Check(IntCase(Draw(&rng, 2000, 0, 100), std::move(build)), "hot key 7");
}

TEST_F(DifferentialHashJoinTest, NegativeAndExtremeKeys) {
  Rng rng(1703);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> domain = {kMin, kMin + 1, -4096, -1, 0,
                                       1,    4096,     kMax - 1, kMax};
  auto pick = [&](size_t n) {
    std::vector<int64_t> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(rng.Uniform(0, 3) == 0
                      ? rng.Uniform(-100000, -1)
                      : domain[static_cast<size_t>(rng.Uniform(
                            0, static_cast<int64_t>(domain.size()) - 1))]);
    }
    return v;
  };
  std::vector<int64_t> probe = pick(3000);
  std::vector<int64_t> build = pick(800);
  Check(IntCase(probe, build), "int64 keys");
  Check(IntCase(std::move(probe), std::move(build), DataType::kDate),
        "date keys");
}

TEST_F(DifferentialHashJoinTest, DateKeys) {
  Rng rng(1704);
  Check(IntCase(Draw(&rng, 4000, 8000, 10500), Draw(&rng, 1500, 8000, 10500),
                DataType::kDate),
        "days since epoch");
}

TEST_F(DifferentialHashJoinTest, StringKeysIncludingEmpty) {
  Rng rng(1705);
  std::vector<std::string> domain = {""};
  for (int i = 0; i < 40; ++i) domain.push_back("key-" + std::to_string(i));
  auto pick = [&](size_t n) {
    std::vector<std::string> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(domain[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(domain.size()) - 1))]);
    }
    return v;
  };
  std::vector<std::string> probe = pick(3000);
  probe.push_back("absent");
  Check(StringCase(std::move(probe), pick(600)), "41 string keys");
}

TEST_F(DifferentialHashJoinTest, EmptySidesAndAllMisses) {
  Rng rng(1706);
  Check(IntCase(Draw(&rng, 3000, 0, 100), {}), "empty build side");
  Check(IntCase({}, Draw(&rng, 500, 0, 100)), "empty probe side");
  Check(IntCase(Draw(&rng, 3000, 1000, 2000), Draw(&rng, 500, 0, 999)),
        "every probe row misses");
  Check(StringCase({}, {}), "both sides empty");
}

}  // namespace
}  // namespace ecodb::exec
