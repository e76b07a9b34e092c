// Property tests for the join-graph cardinality estimator: for every
// connected subgraph of every committed TPC-H join shape, the estimate
// must land within a documented q-error bound of the TRUE cardinality
// (measured by executing that subgraph through the estimate-free canonical
// plan), and estimates must be bit-identical across repeated analyses of
// the same loaded database.
//
// The q-error bound (max(est/true, true/est) <= 8) is loose enough for the
// uniform-containment assumptions behind `1 / max(ndv)` and tight enough to
// catch broken stats plumbing (a dropped filter, a missed edge, stale NDVs
// all blow past it by orders of magnitude). The estimator feeds pricing
// only — correctness never depends on these numbers — but pricing quality
// is what makes the lambda-driven order flips meaningful.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
#include "exec/filter.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace ecodb::optimizer {
namespace {

constexpr double kQErrorBound = 8.0;

int PopCount(uint32_t x) {
  int n = 0;
  while (x != 0) {
    x &= x - 1;
    ++n;
  }
  return n;
}

class JoinCardinalityTest : public ::testing::Test {
 protected:
  JoinCardinalityTest() : platform_(power::MakeProportionalPlatform()) {
    ssd_ = std::make_unique<storage::SsdDevice>("s0", power::SsdSpec{},
                                                platform_->meter());
    tpch::TpchConfig config;
    config.scale_factor = 0.2;  // 3000 orders: executes in milliseconds
    auto db = tpch::LoadDatabase(config, storage::TableLayout::kColumn,
                                 ssd_.get(), &catalog_);
    EXPECT_TRUE(db.ok()) << db.status().message();
    db_ = std::make_unique<tpch::TpchDatabase>(std::move(*db));
  }

  uint64_t CountRows(exec::Operator* root) {
    exec::ExecContext ctx(platform_.get(), {});
    auto result = exec::CollectAll(root, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().message();
    return result.ok() ? result->TotalRows() : 0;
  }

  /// True cardinality of one relation after its pushed-down filter.
  uint64_t TrueLeafRows(const TableAlternatives& rel) {
    exec::OperatorPtr root = std::make_unique<exec::TableScanOp>(
        rel.variants[0], std::vector<std::string>{}, rel.filter);
    if (rel.filter != nullptr) {
      root = std::make_unique<exec::FilterOp>(std::move(root), rel.filter);
    }
    return CountRows(root.get());
  }

  /// True cardinality of the connected subgraph `mask`: the sub-spec's
  /// relations and internal edges executed through CanonicalJoinPlan —
  /// which never consults the estimator under test.
  uint64_t TrueJoinRows(const QuerySpec& spec, uint32_t mask) {
    QuerySpec sub;
    std::vector<int> remap(spec.relations.size(), -1);
    for (size_t rel = 0; rel < spec.relations.size(); ++rel) {
      if (mask >> rel & 1) {
        remap[rel] = static_cast<int>(sub.relations.size());
        sub.relations.push_back(spec.relations[rel]);
      }
    }
    for (const JoinEdge& e : spec.edges) {
      if (remap[e.left_rel] >= 0 && remap[e.right_rel] >= 0) {
        sub.edges.push_back(
            {remap[e.left_rel], remap[e.right_rel], e.left_key, e.right_key});
      }
    }
    auto plan = CanonicalJoinPlan(sub);
    EXPECT_TRUE(plan.ok()) << plan.status().message();
    if (!plan.ok()) return 0;
    CostModel model(platform_.get(), {});
    Planner planner(&model);
    auto root = planner.BuildOperator(sub, *plan);
    EXPECT_TRUE(root.ok()) << root.status().message();
    if (!root.ok()) return 0;
    return CountRows(root->get());
  }

  static double QError(double est, double truth) {
    if (truth <= 0.0 || est <= 0.0) return kQErrorBound + 1.0;
    return std::max(est / truth, truth / est);
  }

  std::unique_ptr<power::HardwarePlatform> platform_;
  std::unique_ptr<storage::SsdDevice> ssd_;
  catalog::Catalog catalog_;
  std::unique_ptr<tpch::TpchDatabase> db_;
};

TEST_F(JoinCardinalityTest, EverySubgraphEstimateWithinQErrorBound) {
  for (const tpch::JoinQueryShape& shape :
       tpch::MakeJoinQueryShapes(*db_)) {
    SCOPED_TRACE("shape=" + shape.name);
    auto graph = JoinGraph::Analyze(shape.spec);
    ASSERT_TRUE(graph.ok()) << graph.status().message();

    for (uint32_t mask = 1; mask <= graph->full_mask(); ++mask) {
      if (!graph->Connected(mask)) continue;
      const double est = graph->EstimateRows(mask);
      double truth;
      if (PopCount(mask) == 1) {
        int rel = 0;
        while ((mask >> rel & 1) == 0) ++rel;
        truth = static_cast<double>(
            TrueLeafRows(shape.spec.relations[rel]));
      } else {
        truth = static_cast<double>(TrueJoinRows(shape.spec, mask));
      }
      SCOPED_TRACE("mask=" + std::to_string(mask) +
                   " est=" + std::to_string(est) +
                   " true=" + std::to_string(truth));
      EXPECT_LE(QError(est, truth), kQErrorBound);
    }
  }
}

TEST_F(JoinCardinalityTest, EstimatesDeterministicAcrossAnalyses) {
  for (const tpch::JoinQueryShape& shape :
       tpch::MakeJoinQueryShapes(*db_)) {
    SCOPED_TRACE("shape=" + shape.name);
    auto a = JoinGraph::Analyze(shape.spec);
    auto b = JoinGraph::Analyze(shape.spec);
    ASSERT_TRUE(a.ok() && b.ok());
    for (uint32_t mask = 1; mask <= a->full_mask(); ++mask) {
      if (!a->Connected(mask)) continue;
      // Bit-identical, not approximately equal: same stats, same spec,
      // same arithmetic.
      EXPECT_EQ(a->EstimateRows(mask), b->EstimateRows(mask))
          << "mask=" << mask;
    }
  }
}

TEST_F(JoinCardinalityTest, FkJoinsDoNotExpandFactTables) {
  // The `1 / max(ndv)` rule must recognize key/foreign-key joins from NDVs
  // alone: joining a fact table to a dimension on the dimension's dense key
  // keeps the fact cardinality (within q-error of filters).
  auto graph =
      JoinGraph::Analyze(tpch::MakeSegmentRevenueSpec(*db_, "BUILDING", 1200));
  ASSERT_TRUE(graph.ok());
  // orders (rel 1, filtered) joined to ALL customers (rel 0 unfiltered
  // would be |orders filtered|); with the segment filter, ~1/5 of it.
  const double orders_filtered = graph->filtered_rows(1);
  const double co = graph->EstimateRows(0b011);
  EXPECT_LE(co, orders_filtered * 1.01);
  EXPECT_GE(co, orders_filtered * 0.1);
}

}  // namespace
}  // namespace ecodb::optimizer
