#include "tpch/workload.h"

#include <memory>

#include "optimizer/join_order.h"
#include "tpch/queries.h"

namespace ecodb::tpch {

namespace {

/// ORDERS and LINEITEM plus the statistics every spec of the mixture
/// borrows, analyzed once up front.
struct Mixture {
  const storage::TableStorage* orders = nullptr;
  const storage::TableStorage* lineitem = nullptr;
  catalog::TableStats orders_stats;
  catalog::TableStats lineitem_stats;
};

StatusOr<Mixture> AnalyzeMixture(const storage::TableStorage* orders,
                                 const storage::TableStorage* lineitem) {
  if (orders == nullptr || lineitem == nullptr) {
    return Status::InvalidArgument("throughput mixture needs both tables");
  }
  Mixture m{orders, lineitem, {}, {}};
  ECODB_RETURN_IF_ERROR(orders->AnalyzeInto(&m.orders_stats));
  ECODB_RETURN_IF_ERROR(lineitem->AnalyzeInto(&m.lineitem_stats));
  return m;
}

// Query `shape` of throughput-test stream `stream`, lowered through the
// planner's builder, plus the tables and columns its scans read. It takes
// the canonical plan rather than ChoosePlan: there is no platform here to
// price against, and the canonical tree is the one the mixture has always
// run.
StatusOr<sched::SessionManager::PlannedQuery> MakeStreamQuery(
    const Mixture& m, int shape, int stream) {
  const optimizer::QuerySpec spec =
      MakeThroughputSpec({m.orders, &m.orders_stats},
                         {m.lineitem, &m.lineitem_stats}, shape, stream);
  ECODB_ASSIGN_OR_RETURN(const optimizer::PhysicalPlan plan,
                         optimizer::CanonicalJoinPlan(spec));
  sched::SessionManager::PlannedQuery pq;
  ECODB_ASSIGN_OR_RETURN(pq.root,
                         optimizer::Planner::BuildOperator(spec, plan));
  for (const optimizer::PlanJoinNode& leaf : plan.join_nodes) {
    if (leaf.relation < 0) continue;
    const storage::TableStorage* table =
        spec.Relations()[leaf.relation].variants[leaf.variant];
    std::vector<int> columns;
    for (const std::string& name :
         optimizer::ScanColumns(spec, leaf.relation)) {
      columns.push_back(table->schema().FindColumn(name));
    }
    pq.scans.push_back({table, std::move(columns)});
  }
  return pq;
}

}  // namespace

sched::SessionManager::QueryFactory MakeServingFactory(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem) {
  // Shared, so copies of the factory borrow one analysis.
  auto mixture = std::make_shared<const StatusOr<Mixture>>(
      AnalyzeMixture(orders, lineitem));
  return [mixture](const sim::TraceRequest& req)
             -> StatusOr<sched::SessionManager::PlannedQuery> {
    if (!mixture->ok()) return mixture->status();
    const int shape = static_cast<int>(((req.query_class % 3) + 3) % 3);
    const int stream = static_cast<int>(((req.param % 8) + 8) % 8);
    return MakeStreamQuery(**mixture, shape, stream);
  };
}

StatusOr<ThroughputResult> RunThroughputTest(
    power::HardwarePlatform* platform, const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int streams,
    const exec::ExecOptions& exec_options) {
  ECODB_RETURN_IF_ERROR(
      exec_options.Validate(platform->cpu().num_pstates()));
  ECODB_ASSIGN_OR_RETURN(const Mixture mixture,
                         AnalyzeMixture(orders, lineitem));
  ThroughputResult result;
  const power::MeterSnapshot start = platform->meter()->Snapshot();
  const double t0 = platform->clock()->now();

  for (int s = 0; s < streams; ++s) {
    for (int shape = 0; shape < 3; ++shape) {
      ECODB_ASSIGN_OR_RETURN(sched::SessionManager::PlannedQuery q,
                             MakeStreamQuery(mixture, shape, s));
      exec::ExecContext ctx(platform, exec_options);
      ECODB_ASSIGN_OR_RETURN(exec::QueryResultSet rs,
                             exec::CollectAll(q.root.get(), &ctx));
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
