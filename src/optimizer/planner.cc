#include "optimizer/planner.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "optimizer/planner_internal.h"

#include "exec/aggregate.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "exec/topk.h"

namespace ecodb::optimizer {

using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;

const char* AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kTableScan:
      return "seq-scan";
    case AccessPath::kIndexScan:
      return "index-scan";
  }
  return "unknown";
}

const char* JoinAlgorithmName(JoinAlgorithm algo) {
  switch (algo) {
    case JoinAlgorithm::kHash:
      return "hash(build=right)";
    case JoinAlgorithm::kMerge:
      return "sort-merge";
    case JoinAlgorithm::kNestedLoop:
      return "nested-loop";
  }
  return "unknown";
}

namespace internal {

void CollectColumns(const ExprPtr& expr, std::set<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kColumn) {
    out->insert(expr->column_name());
    return;
  }
  CollectColumns(expr->lhs(), out);
  CollectColumns(expr->rhs(), out);
}

std::vector<int> ToIndexes(const catalog::Schema& schema,
                           const std::vector<std::string>& names) {
  std::vector<int> idx;
  idx.reserve(names.size());
  for (const std::string& n : names) {
    const int i = schema.FindColumn(n);
    if (i >= 0) idx.push_back(i);
  }
  return idx;
}

double RowWidthOf(const storage::TableStorage& table,
                  const std::vector<std::string>& columns) {
  double width = 0.0;
  for (const std::string& name : columns) {
    const int i = table.schema().FindColumn(name);
    if (i >= 0) {
      const catalog::Column& c = table.schema().column(i);
      width += catalog::TypeWidthBytes(c.type, c.avg_width);
    }
  }
  return width;
}

ResourceEstimate PrunedScanDemand(const storage::TableStorage& table,
                                  const std::vector<int>& col_indexes,
                                  const exec::ExprPtr& filter,
                                  double decode_scale) {
  ResourceEstimate demand;
  const exec::ScanPruning pruning = exec::PruneScan(filter, table);
  const uint64_t bytes =
      exec::ScanTransferBytes(table, col_indexes, pruning.selected_fraction);
  if (bytes > 0 && table.device() != nullptr) {
    demand.device_bytes[table.device()] += bytes;
  }
  demand.cpu_instructions =
      exec::ScanDecodeInstructions(table, col_indexes,
                                   pruning.selected_fraction) *
      decode_scale;
  return demand;
}

void PriceTail(const QuerySpec& spec, bool use_topk, const CostModel& model,
               double in_rows, double output_rows, double input_width,
               ResourceEstimate* demand) {
  const exec::CostConstants& k = model.params().costs;
  if (!spec.aggregates.empty()) {
    // Group updates run in thread-local partials; the merged-table emission
    // is the coordinator's.
    demand->cpu_instructions += k.agg_update_per_row * in_rows;
    demand->serial_cpu_instructions += k.output_per_row * output_rows;
    demand->dram_traffic_bytes += static_cast<uint64_t>(output_rows * 64.0);
  }

  if (!spec.order_by.empty()) {
    const double n = output_rows;
    // Materialized width of the sorted rows: aggregate outputs are (group
    // keys + aggregate values); otherwise the projected scan/join width.
    double width;
    if (!spec.aggregates.empty()) {
      width = 8.0 * static_cast<double>(spec.group_by.size() +
                                        spec.aggregates.size());
    } else {
      width = input_width;
    }
    const double budget =
        static_cast<double>(spec.sort_memory_budget_bytes);
    if (use_topk && spec.limit.has_value()) {
      // Fused top-k: O(n log k) comparisons, and only the k-row candidate
      // set is held (and, if even that overflows the budget, spilled) —
      // zero spill bytes whenever k rows fit the budget.
      const double limit_rows = static_cast<double>(*spec.limit);
      demand->Merge(model.SortDemand(n, spec.order_by.size(), limit_rows));
      const double kept_bytes = std::min(n, limit_rows) * width;
      demand->dram_traffic_bytes +=
          static_cast<uint64_t>(std::min(kept_bytes, budget));
      if (spec.sort_spill_device != nullptr && kept_bytes > budget) {
        demand->device_bytes[spec.sort_spill_device] +=
            static_cast<uint64_t>(2.0 * kept_bytes);
      }
    } else {
      demand->Merge(model.SortDemand(n, spec.order_by.size()));
      const double sort_bytes = n * width;
      demand->dram_traffic_bytes +=
          static_cast<uint64_t>(std::min(sort_bytes, budget));
      if (spec.sort_spill_device != nullptr && sort_bytes > budget) {
        // External spill: every run is written once and read back once.
        demand->device_bytes[spec.sort_spill_device] +=
            static_cast<uint64_t>(2.0 * sort_bytes);
      }
    }
  }
}

exec::OperatorPtr FinishOperatorTree(const QuerySpec& spec,
                                     const PhysicalPlan& plan,
                                     exec::OperatorPtr root) {
  if (!spec.aggregates.empty()) {
    root = std::make_unique<exec::HashAggregateOp>(
        std::move(root), spec.group_by, spec.aggregates);
  }

  bool limit_applied = false;
  if (!spec.order_by.empty()) {
    if (plan.use_topk && spec.limit.has_value()) {
      root = std::make_unique<exec::TopKOp>(
          std::move(root), spec.order_by, static_cast<size_t>(*spec.limit),
          spec.sort_memory_budget_bytes, spec.sort_spill_device);
      limit_applied = true;
    } else {
      root = std::make_unique<exec::SortOp>(std::move(root), spec.order_by,
                                            spec.sort_memory_budget_bytes,
                                            spec.sort_spill_device);
    }
  }
  if (spec.limit.has_value() && !limit_applied) {
    root = std::make_unique<exec::LimitOp>(
        std::move(root), static_cast<size_t>(*spec.limit));
  }
  return root;
}

}  // namespace internal

bool Planner::ExtractKeyRange(const ExprPtr& filter,
                              const std::string& column, int64_t* lo,
                              int64_t* hi) {
  if (filter == nullptr) return false;
  if (filter->kind() == ExprKind::kLogical &&
      filter->logical_op() == exec::LogicalOp::kAnd) {
    int64_t l1 = INT64_MIN, h1 = INT64_MAX, l2 = INT64_MIN, h2 = INT64_MAX;
    const bool a = ExtractKeyRange(filter->lhs(), column, &l1, &h1);
    const bool b = ExtractKeyRange(filter->rhs(), column, &l2, &h2);
    if (!a && !b) return false;
    *lo = std::max(l1, l2);
    *hi = std::min(h1, h2);
    return true;
  }
  if (filter->kind() != ExprKind::kCompare) return false;
  const ExprPtr& l = filter->lhs();
  const ExprPtr& r = filter->rhs();
  const bool col_lit =
      l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kLiteral;
  const bool lit_col =
      l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn;
  if (!col_lit && !lit_col) return false;
  const std::string& name = col_lit ? l->column_name() : r->column_name();
  if (name != column) return false;
  const exec::Value& lit = col_lit ? r->literal() : l->literal();
  if (!catalog::IsIntegerLike(lit.type)) return false;
  exec::CompareOp op = filter->compare_op();
  if (lit_col) {
    switch (op) {
      case exec::CompareOp::kLt:
        op = exec::CompareOp::kGt;
        break;
      case exec::CompareOp::kLe:
        op = exec::CompareOp::kGe;
        break;
      case exec::CompareOp::kGt:
        op = exec::CompareOp::kLt;
        break;
      case exec::CompareOp::kGe:
        op = exec::CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  *lo = INT64_MIN;
  *hi = INT64_MAX;
  switch (op) {
    case exec::CompareOp::kEq:
      *lo = *hi = lit.i64;
      return true;
    case exec::CompareOp::kLt:
      *hi = lit.i64 - 1;
      return true;
    case exec::CompareOp::kLe:
      *hi = lit.i64;
      return true;
    case exec::CompareOp::kGt:
      *lo = lit.i64 + 1;
      return true;
    case exec::CompareOp::kGe:
      *lo = lit.i64;
      return true;
    default:
      return false;
  }
}

namespace {

/// Renders the join tree: leaves as `<path>(<name> v<variant>)`, joins as
/// parenthesized `(left <algo> right)` with a `*` marking residual-edge
/// filters — the full tree, so bench output shows the chosen order.
std::string DescribeJoinNode(const QuerySpec& spec,
                             const std::vector<PlanJoinNode>& nodes,
                             int index) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) return "?";
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    const std::span<const TableAlternatives> rels = spec.Relations();
    const std::string name =
        node.relation < static_cast<int>(rels.size())
            ? rels[node.relation].name
            : "rel" + std::to_string(node.relation);
    return std::string(AccessPathName(node.path)) + "(" + name + " v" +
           std::to_string(node.variant) + ")";
  }
  std::string out = "(" + DescribeJoinNode(spec, nodes, node.left) + " " +
                    JoinAlgorithmName(node.algo);
  if (!node.residual_edges.empty()) out += "*";
  return out + " " + DescribeJoinNode(spec, nodes, node.right) + ")";
}

void CollectLeaves(const std::vector<PlanJoinNode>& nodes, int index,
                   std::vector<int>* out) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) return;
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    out->push_back(node.relation);
    return;
  }
  CollectLeaves(nodes, node.left, out);
  CollectLeaves(nodes, node.right, out);
}

}  // namespace

std::vector<int> PhysicalPlan::LeafOrder() const {
  std::vector<int> order;
  CollectLeaves(join_nodes, join_root, &order);
  return order;
}

std::string PhysicalPlan::Describe(const QuerySpec& spec) const {
  std::string out = DescribeJoinNode(spec, join_nodes, join_root);
  if (!spec.aggregates.empty()) out += " -> aggregate";
  if (!spec.order_by.empty()) {
    if (use_topk && spec.limit.has_value()) {
      out += " -> topk(" + std::to_string(*spec.limit) + ")";
    } else {
      out += " -> sort";
      if (spec.limit.has_value()) {
        out += " -> limit(" + std::to_string(*spec.limit) + ")";
      }
    }
  } else if (spec.limit.has_value()) {
    out += " -> limit(" + std::to_string(*spec.limit) + ")";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " [dop=%d pstate=%d est %.3fs %.1fJ rows=%.0f]", dop, pstate,
                cost.seconds, cost.joules, output_rows);
  return out + buf;
}

Planner::Planner(CostModel* model, PlannerOptions options)
    : model_(model), options_(std::move(options)) {
  if (options_.dops.empty()) options_.dops = {1};
}

namespace {

/// A column-vs-literal inequality, normalized so the column is on the left
/// ("lit < col" becomes "col > lit"). `ok` is false for anything else.
struct RangeBound {
  std::string column;
  exec::CompareOp op = exec::CompareOp::kEq;
  double value = 0.0;
  bool ok = false;
};

RangeBound ExtractRangeBound(const ExprPtr& e) {
  RangeBound b;
  if (e == nullptr || e->kind() != ExprKind::kCompare) return b;
  const ExprPtr& l = e->lhs();
  const ExprPtr& r = e->rhs();
  const bool col_lit =
      l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kLiteral;
  const bool lit_col =
      l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn;
  if (!col_lit && !lit_col) return b;
  b.column = col_lit ? l->column_name() : r->column_name();
  b.op = e->compare_op();
  if (lit_col) {
    switch (b.op) {
      case exec::CompareOp::kLt:
        b.op = exec::CompareOp::kGt;
        break;
      case exec::CompareOp::kLe:
        b.op = exec::CompareOp::kGe;
        break;
      case exec::CompareOp::kGt:
        b.op = exec::CompareOp::kLt;
        break;
      case exec::CompareOp::kGe:
        b.op = exec::CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  switch (b.op) {
    case exec::CompareOp::kLt:
    case exec::CompareOp::kLe:
    case exec::CompareOp::kGt:
    case exec::CompareOp::kGe:
      break;
    default:
      return b;
  }
  b.value = (col_lit ? r->literal() : l->literal()).AsDouble();
  b.ok = true;
  return b;
}

/// Selectivity of `a AND b` when both are range bounds on the same numeric
/// column: the interval INTERSECTION under the uniform assumption, not the
/// product of two "independent" predicates. For a date band like
/// `d >= 900 AND d < 960` over a ~2555-day domain the difference is 2.3%
/// vs 24% — an order of magnitude, and exactly the shape every TPC-H date
/// window takes. Returns a negative sentinel when the pattern doesn't apply.
double BandSelectivity(const RangeBound& a, const RangeBound& b,
                       const catalog::Schema& schema,
                       const catalog::TableStats& stats) {
  if (!a.ok || !b.ok || a.column != b.column) return -1.0;
  const int idx = schema.FindColumn(a.column);
  if (idx < 0 || idx >= static_cast<int>(stats.columns.size())) return -1.0;
  const catalog::ColumnStats& cs = stats.columns[idx];
  const catalog::DataType t = schema.column(idx).type;
  double lo, hi;
  if (t == catalog::DataType::kDouble) {
    lo = cs.min_f64;
    hi = cs.max_f64;
  } else if (catalog::IsIntegerLike(t)) {
    lo = static_cast<double>(cs.min_i64);
    hi = static_cast<double>(cs.max_i64);
  } else {
    return -1.0;
  }
  if (hi <= lo) return -1.0;
  double lo_cut = 0.0, hi_cut = 1.0;
  for (const RangeBound* p : {&a, &b}) {
    const double frac = std::clamp((p->value - lo) / (hi - lo), 0.0, 1.0);
    if (p->op == exec::CompareOp::kLt || p->op == exec::CompareOp::kLe) {
      hi_cut = std::min(hi_cut, frac);
    } else {
      lo_cut = std::max(lo_cut, frac);
    }
  }
  return std::max(hi_cut - lo_cut, 0.0);
}

}  // namespace

double Planner::EstimateSelectivity(const ExprPtr& filter,
                                    const catalog::Schema& schema,
                                    const catalog::TableStats& stats) {
  if (filter == nullptr) return 1.0;
  switch (filter->kind()) {
    case ExprKind::kLogical: {
      if (filter->logical_op() == exec::LogicalOp::kAnd) {
        const double band =
            BandSelectivity(ExtractRangeBound(filter->lhs()),
                            ExtractRangeBound(filter->rhs()), schema, stats);
        if (band >= 0.0) return band;
      }
      const double a = EstimateSelectivity(filter->lhs(), schema, stats);
      const double b = EstimateSelectivity(filter->rhs(), schema, stats);
      return filter->logical_op() == exec::LogicalOp::kAnd
                 ? a * b
                 : a + b - a * b;
    }
    case ExprKind::kNot:
      return 1.0 - EstimateSelectivity(filter->lhs(), schema, stats);
    case ExprKind::kCompare: {
      // Column-vs-literal gets a range estimate; everything else defaults.
      const ExprPtr& l = filter->lhs();
      const ExprPtr& r = filter->rhs();
      const bool col_lit = l->kind() == ExprKind::kColumn &&
                           r->kind() == ExprKind::kLiteral;
      const bool lit_col = l->kind() == ExprKind::kLiteral &&
                           r->kind() == ExprKind::kColumn;
      if (!col_lit && !lit_col) return 0.33;
      const std::string& col_name =
          col_lit ? l->column_name() : r->column_name();
      const exec::Value& lit = col_lit ? r->literal() : l->literal();
      const int idx = schema.FindColumn(col_name);
      if (idx < 0 || idx >= static_cast<int>(stats.columns.size())) {
        return 0.33;
      }
      const catalog::ColumnStats& cs = stats.columns[idx];
      exec::CompareOp op = filter->compare_op();
      if (lit_col) {
        // Normalize "lit < col" to "col > lit" etc.
        switch (op) {
          case exec::CompareOp::kLt:
            op = exec::CompareOp::kGt;
            break;
          case exec::CompareOp::kLe:
            op = exec::CompareOp::kGe;
            break;
          case exec::CompareOp::kGt:
            op = exec::CompareOp::kLt;
            break;
          case exec::CompareOp::kGe:
            op = exec::CompareOp::kLe;
            break;
          default:
            break;
        }
      }
      if (op == exec::CompareOp::kEq) {
        return cs.distinct_values > 0
                   ? 1.0 / static_cast<double>(cs.distinct_values)
                   : 0.1;
      }
      if (op == exec::CompareOp::kNe) {
        return cs.distinct_values > 0
                   ? 1.0 - 1.0 / static_cast<double>(cs.distinct_values)
                   : 0.9;
      }
      // Range: interpolate within [min, max].
      double lo, hi, v;
      const catalog::DataType t = schema.column(idx).type;
      if (t == catalog::DataType::kDouble) {
        lo = cs.min_f64;
        hi = cs.max_f64;
        v = lit.AsDouble();
      } else if (catalog::IsIntegerLike(t)) {
        lo = static_cast<double>(cs.min_i64);
        hi = static_cast<double>(cs.max_i64);
        v = lit.AsDouble();
      } else {
        return 0.33;  // string range: no histogram
      }
      if (hi <= lo) return 0.5;
      const double frac = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
      switch (op) {
        case exec::CompareOp::kLt:
        case exec::CompareOp::kLe:
          return frac;
        case exec::CompareOp::kGt:
        case exec::CompareOp::kGe:
          return 1.0 - frac;
        default:
          return 0.33;
      }
    }
    default:
      return 0.33;
  }
}

std::vector<int> DopLadder(int max_dop) {
  std::vector<int> dops;
  for (int d = 1; d <= std::max(1, max_dop); d *= 2) dops.push_back(d);
  if (dops.back() != max_dop && max_dop > 1) dops.push_back(max_dop);
  return dops;
}

std::vector<int> PlatformDopLadder(const power::HardwarePlatform& platform) {
  return DopLadder(platform.cpu().total_cores());
}

}  // namespace ecodb::optimizer
