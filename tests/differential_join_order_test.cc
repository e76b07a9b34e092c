// Differential test for join-order equivalence: randomized 3-5-relation
// join graphs planned by the bitmask-DP enumerator AND by the fixed-order
// canonical oracle, executed at dop 1/2/4/8.
//
// The oracle (CanonicalJoinPlan) is deliberately estimate-free — left-deep
// hash joins over variant-0 seq scans in BFS edge order — so neither a
// cardinality-estimation bug nor a wrong leaf choice in the DP can cancel
// out in the comparison. For every generated case (varying relation count,
// sizes, key-duplication domains, spanning-tree shape, extra cyclic edges,
// pushed-down filters, compressed second variants, B-tree indexes on
// filtered columns, optional grouped aggregation, lambda, and the
// memory-power premium) the harness asserts:
//   1. both plans' rows are byte-identical after projecting columns to a
//      canonical name order and sorting rows (join output order is
//      legitimately plan-dependent; content is not), and
//   2. within each plan family the modeled charges are bit-identical
//      across dop — DESIGN.md's determinism contract extended to N-way
//      join trees.
//
// Payloads and keys are int64-only; aggregate sums stay below 2^53 so SUM's
// double accumulator is exact under any accumulation order.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/btree.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb::optimizer {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;
using exec::QueryStats;
using exec::Value;

struct CaseEdge {
  int a = 0;
  int b = 0;
  int64_t domain = 1;  // key values drawn from [1, domain]
};

struct CaseSpec {
  uint64_t seed = 0;
  int num_rels = 0;
  std::vector<int> rows;        // per relation
  std::vector<CaseEdge> edges;  // first num_rels-1 form a spanning tree
  std::vector<bool> filtered;   // payload filter pushed into this relation
  /// Per relation (empty = none): a compressed clone as variant 1, and a
  /// B-tree on the payload column (used when the relation is filtered).
  std::vector<bool> compressed;
  std::vector<bool> indexed;
  /// Per filtered relation (empty = half its rows): rows its filter keeps.
  std::vector<int> kept;
  bool aggregate = false;
  double lambda = 0.0;
  double premium = 1.0;
};

/// Total order on Value for canonical row sorting (column types match
/// within a column, so cross-type ordering only needs to be consistent).
bool ValueLess(const Value& x, const Value& y) {
  if (x.type != y.type) {
    return static_cast<int>(x.type) < static_cast<int>(y.type);
  }
  if (x.i64 != y.i64) return x.i64 < y.i64;
  if (x.f64 != y.f64) return x.f64 < y.f64;
  return x.str < y.str;
}

bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (ValueLess(a[i], b[i])) return true;
    if (ValueLess(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

class DifferentialJoinOrderTest : public ::testing::Test {
 protected:
  DifferentialJoinOrderTest()
      : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
  }

  /// Draws one random case: 3-5 relations, a random spanning tree plus an
  /// occasional extra (cyclic / parallel) edge, mixed key-duplication
  /// domains, occasional pushed-down filters and aggregation, and a random
  /// point on the lambda / memory-premium grid.
  CaseSpec DrawCase(uint64_t seed) {
    Rng rng(seed);
    CaseSpec c;
    c.seed = seed;
    c.num_rels = static_cast<int>(rng.Uniform(3, 5));
    for (int i = 0; i < c.num_rels; ++i) {
      c.rows.push_back(static_cast<int>(rng.Uniform(40, 300)));
      c.filtered.push_back(rng.Bernoulli(0.3));
    }
    for (int i = 1; i < c.num_rels; ++i) {
      CaseEdge e;
      e.a = static_cast<int>(rng.Uniform(0, i - 1));
      e.b = i;
      // Near-FK domains keep join sizes bounded; the occasional small
      // domain forces heavy key duplication.
      e.domain = rng.Bernoulli(0.25)
                     ? 16
                     : std::max(c.rows[e.a], c.rows[e.b]);
      c.edges.push_back(e);
    }
    if (rng.Bernoulli(0.4)) {
      CaseEdge extra;
      extra.a = static_cast<int>(rng.Uniform(0, c.num_rels - 2));
      extra.b = static_cast<int>(
          rng.Uniform(extra.a + 1, c.num_rels - 1));
      extra.domain = std::max(c.rows[extra.a], c.rows[extra.b]);
      c.edges.push_back(extra);
    }
    c.aggregate = rng.Bernoulli(0.3);
    const double lambdas[] = {0.0, 0.01, 10.0};
    c.lambda = lambdas[rng.Uniform(0, 2)];
    const double premiums[] = {1.0, 1e4, 1e7};
    c.premium = premiums[rng.Uniform(0, 2)];
    // Leaf alternatives, drawn last so the draws above stay as they were.
    for (int i = 0; i < c.num_rels; ++i) {
      c.compressed.push_back(rng.Bernoulli(0.5));
      c.indexed.push_back(rng.Bernoulli(0.5));
    }
    return c;
  }

  /// Key column name of edge `e` on relation `rel` (unique per relation
  /// AND across relations, as the N-way contract requires).
  static std::string KeyCol(int e, int rel) {
    return "e" + std::to_string(e) + "_" + std::to_string(rel);
  }
  static std::string PayloadCol(int rel) {
    return "p" + std::to_string(rel);
  }

  /// Relation `rel`'s rows; `compressed` stores every column encoded.
  std::unique_ptr<storage::TableStorage> MakeRelation(const CaseSpec& c,
                                                      int rel,
                                                      bool compressed) {
    std::vector<Column> schema_cols{
        Column{PayloadCol(rel), DataType::kInt64, 8}};
    std::vector<int> incident;
    for (size_t e = 0; e < c.edges.size(); ++e) {
      if (c.edges[e].a == rel || c.edges[e].b == rel) {
        incident.push_back(static_cast<int>(e));
        schema_cols.push_back(
            Column{KeyCol(static_cast<int>(e), rel), DataType::kInt64, 8});
      }
    }
    auto table = std::make_unique<storage::TableStorage>(
        static_cast<catalog::TableId>(rel + 1), Schema(schema_cols),
        storage::TableLayout::kColumn, ssd_.get());
    std::vector<storage::ColumnData> cols(schema_cols.size());
    for (auto& col : cols) col.type = DataType::kInt64;
    Rng rng(c.seed ^ (0xD1FF00ULL + static_cast<uint64_t>(rel)));
    for (int i = 0; i < c.rows[rel]; ++i) {
      cols[0].i64.push_back(i);
      for (size_t k = 0; k < incident.size(); ++k) {
        cols[k + 1].i64.push_back(
            rng.Uniform(1, c.edges[incident[k]].domain));
      }
    }
    EXPECT_TRUE(table->Append(cols).ok());
    if (compressed) {
      EXPECT_TRUE(table
                      ->SetCompression(PayloadCol(rel),
                                       storage::CompressionKind::kDelta)
                      .ok());
      for (int e : incident) {
        EXPECT_TRUE(table
                        ->SetCompression(KeyCol(e, rel),
                                         storage::CompressionKind::kFor)
                        .ok());
      }
    }
    return table;
  }

  /// Storage a case's spec points into.
  struct CaseData {
    std::vector<std::unique_ptr<storage::TableStorage>> tables;
    std::vector<std::unique_ptr<storage::BTreeIndex>> indexes;
  };

  static bool Flag(const std::vector<bool>& flags, int rel) {
    return rel < static_cast<int>(flags.size()) && flags[rel];
  }

  /// Builds the N-way QuerySpec over freshly generated tables (kept in
  /// `data` so they outlive the returned spec).
  QuerySpec MakeSpec(const CaseSpec& c, CaseData* data) {
    QuerySpec spec;
    for (int rel = 0; rel < c.num_rels; ++rel) {
      TableAlternatives side;
      side.name = "rel" + std::to_string(rel);
      data->tables.push_back(MakeRelation(c, rel, false));
      side.variants = {data->tables.back().get()};
      if (Flag(c.compressed, rel)) {
        data->tables.push_back(MakeRelation(c, rel, true));
        side.variants.push_back(data->tables.back().get());
      }
      if (c.filtered[rel]) {
        const int kept = rel < static_cast<int>(c.kept.size())
                             ? c.kept[rel]
                             : c.rows[rel] / 2;
        side.filter = Col(PayloadCol(rel)) < Lit(int64_t{kept});
        if (Flag(c.indexed, rel)) {
          // The payload is the row number, so key i lives at row i.
          auto index = std::make_unique<storage::BTreeIndex>();
          for (int i = 0; i < c.rows[rel]; ++i) {
            index->Insert(i, static_cast<uint64_t>(i));
          }
          side.index = index.get();
          side.index_column = PayloadCol(rel);
          data->indexes.push_back(std::move(index));
        }
      }
      spec.relations.push_back(std::move(side));
    }
    for (size_t e = 0; e < c.edges.size(); ++e) {
      spec.edges.push_back({c.edges[e].a, c.edges[e].b,
                            KeyCol(static_cast<int>(e), c.edges[e].a),
                            KeyCol(static_cast<int>(e), c.edges[e].b)});
    }
    if (c.aggregate) {
      // Group on edge 0's left-endpoint key; counts and int-payload sums
      // are order-independent-exact in a double accumulator.
      spec.group_by = {KeyCol(0, c.edges[0].a)};
      spec.aggregates = {
          {"cnt", exec::AggFunc::kCount, nullptr},
          {"psum", exec::AggFunc::kSum, Col(PayloadCol(0))},
      };
    }
    return spec;
  }

  struct RunOutcome {
    std::vector<std::vector<Value>> rows;
    QueryStats stats;
  };

  /// Executes `plan` and returns rows projected to ascending column-name
  /// order and sorted — the canonical form two row-equivalent plans must
  /// agree on byte-for-byte.
  RunOutcome Run(const Planner& planner, const QuerySpec& spec,
                 const PhysicalPlan& plan, int dop) {
    PhysicalPlan at_dop = plan;
    at_dop.dop = dop;
    auto root = planner.BuildOperator(spec, at_dop);
    EXPECT_TRUE(root.ok()) << root.status().message();
    RunOutcome out;
    if (!root.ok()) return out;
    exec::ExecOptions options;
    options.dop = dop;
    options.morsel_rows = 64;  // several morsels even for small relations
    exec::ExecContext ctx(platform_.get(), options);
    auto result = exec::CollectAll(root->get(), &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    out.stats = ctx.Finish();
    if (!result.ok()) return out;

    const int ncols = result->schema.num_columns();
    std::vector<std::pair<std::string, int>> order;
    for (int i = 0; i < ncols; ++i) {
      order.emplace_back(result->schema.column(i).name, i);
    }
    std::sort(order.begin(), order.end());
    for (const auto& batch : result->batches) {
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        std::vector<Value> row;
        row.reserve(order.size());
        for (const auto& [name, idx] : order) {
          row.push_back(batch.GetValue(r, idx));
        }
        out.rows.push_back(std::move(row));
      }
    }
    std::sort(out.rows.begin(), out.rows.end(), RowLess);
    return out;
  }

  static void ExpectChargesIdentical(const QueryStats& got,
                                     const QueryStats& base) {
    EXPECT_EQ(got.cpu_instructions, base.cpu_instructions);
    EXPECT_EQ(got.io_bytes, base.io_bytes);
    EXPECT_EQ(got.cpu_seconds, base.cpu_seconds);
    EXPECT_EQ(got.cpu_serial_seconds, base.cpu_serial_seconds);
  }

  void RunCase(const CaseSpec& c) {
    CaseData data;
    const QuerySpec spec = MakeSpec(c, &data);

    CostModelParams params;
    params.memory_power_premium = c.premium;
    params.dram_watts_per_gib_override = 0.65;
    CostModel model(platform_.get(), params);
    PlannerOptions options;
    options.dops = {1};  // fix the tree; the dop ladder below re-runs it
    Planner planner(&model, options);

    auto chosen = planner.ChoosePlan(spec, Objective::Balanced(c.lambda));
    ASSERT_TRUE(chosen.ok()) << chosen.status().message();
    ASSERT_EQ(chosen->LeafOrder().size(),
              static_cast<size_t>(c.num_rels));
    auto oracle = CanonicalJoinPlan(spec);
    ASSERT_TRUE(oracle.ok()) << oracle.status().message();
    for (const PlanJoinNode& node : chosen->join_nodes) {
      if (node.relation < 0) continue;
      if (node.variant != 0) ++compressed_leaves_;
      if (node.path == AccessPath::kIndexScan) ++index_leaves_;
    }

    std::optional<RunOutcome> expected;  // oracle at dop 1
    std::optional<QueryStats> chosen_base, oracle_base;
    for (int dop : {1, 2, 4, 8}) {
      SCOPED_TRACE("dop=" + std::to_string(dop));
      const RunOutcome o = Run(planner, spec, *oracle, dop);
      const RunOutcome d = Run(planner, spec, *chosen, dop);
      if (!expected.has_value()) expected = o;
      EXPECT_EQ(o.rows, expected->rows) << "oracle plan drifted across dop";
      EXPECT_EQ(d.rows, expected->rows)
          << "DP plan rows differ from canonical oracle; DP order: " +
                 chosen->Describe(spec);
      if (!oracle_base.has_value()) {
        oracle_base = o.stats;
      } else {
        ExpectChargesIdentical(o.stats, *oracle_base);
      }
      if (!chosen_base.has_value()) {
        chosen_base = d.stats;
      } else {
        ExpectChargesIdentical(d.stats, *chosen_base);
      }
    }
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  /// Chosen-plan leaves that read the compressed variant / the index —
  /// choices the variant-0 seq-scan oracle never makes.
  int compressed_leaves_ = 0;
  int index_leaves_ = 0;
};

TEST_F(DifferentialJoinOrderTest, RandomizedGraphsMatchOracleAtEveryDop) {
  int cases = 0;
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    const CaseSpec c = DrawCase(0xC0FFEE00ULL + seed);
    std::string edges;
    for (const CaseEdge& e : c.edges) {
      edges += " " + std::to_string(e.a) + "-" + std::to_string(e.b) + "/" +
               std::to_string(e.domain);
    }
    SCOPED_TRACE("seed=" + std::to_string(c.seed) +
                 " rels=" + std::to_string(c.num_rels) + " edges:" + edges +
                 (c.aggregate ? " agg" : "") +
                 " lambda=" + std::to_string(c.lambda) +
                 " premium=" + std::to_string(c.premium));
    RunCase(c);
    ++cases;
  }
  EXPECT_GE(cases, 50);  // the acceptance floor for randomized coverage
  // The compressed clones are really chosen somewhere, so the draw covers
  // leaves the oracle never reads. (On relations this small a seq scan
  // always beats the index; the pinned case below covers index leaves.)
  EXPECT_GT(compressed_leaves_, 0);
}

// Pinned regressions the random draw might miss.

TEST_F(DifferentialJoinOrderTest, ParallelEdgesBecomeResidualFilters) {
  // Two edges between the same pair of relations: one must become a
  // residual filter, and both plans must apply it.
  CaseSpec c;
  c.seed = 101;
  c.num_rels = 3;
  c.rows = {120, 200, 150};
  c.filtered = {false, false, false};
  c.edges = {{0, 1, 16}, {1, 2, 200}, {0, 1, 16}};
  c.lambda = 0.0;
  c.premium = 1.0;
  RunCase(c);
}

TEST_F(DifferentialJoinOrderTest, HighLambdaTreeStillMatchesOracle) {
  // The energy objective picks a different tree than lambda = 0 (that flip
  // is asserted in optimizer_test.cc); here: whatever it picks, the rows
  // must not change.
  CaseSpec c;
  c.seed = 202;
  c.num_rels = 5;
  c.rows = {250, 80, 260, 120, 90};
  c.filtered = {true, false, false, true, false};
  c.edges = {{0, 1, 250}, {0, 2, 260}, {2, 3, 16}, {1, 4, 120}};
  c.aggregate = true;
  c.lambda = 10.0;
  c.premium = 1e7;
  RunCase(c);
}

TEST_F(DifferentialJoinOrderTest, IndexAndCompressedLeavesMatchOracle) {
  // A large relation filtered to 4 of its rows through an index, next to
  // compressed clones: the DP reads it by index scan, the oracle by a
  // variant-0 seq scan, and the rows must not change.
  CaseSpec c;
  c.seed = 303;
  c.num_rels = 3;
  c.rows = {20000, 200, 150};
  c.filtered = {true, false, true};
  c.kept = {4, 0, 75};
  c.compressed = {false, true, true};
  c.indexed = {true, false, true};
  c.edges = {{0, 1, 16}, {1, 2, 150}};
  c.lambda = 0.0;
  c.premium = 1.0;
  RunCase(c);
  EXPECT_GT(index_leaves_, 0);
  EXPECT_GT(compressed_leaves_, 0);
}

}  // namespace
}  // namespace ecodb::optimizer
