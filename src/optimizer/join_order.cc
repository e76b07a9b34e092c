// The planner's one path: JoinGraph analysis, bitmask-DP enumeration over
// connected subgraphs (a one-relation query is the graph with no edges),
// pricing of arbitrary join trees, operator construction, and the
// fixed-order differential oracle.
//
// Invariants this file maintains:
//   - ChoosePlan sets plan.cost by calling the SAME pricing walk PricePlan
//     uses, so `PricePlan(spec, chosen)` reproduces the chosen cost
//     bit-for-bit (the self-consistency contract tests assert).
//   - The estimator feeds pricing only: every enumerated tree joins on real
//     equi-join edges and applies the remaining crossing edges as residual
//     filters, so all orders are row-equivalent regardless of estimates.
//     Variants hold the same rows (Analyze checks schema and row count), so
//     every leaf choice is row-equivalent too.
//   - Physical join operators are reused unchanged. A seq-scan leaf is a
//     morsel scan with its filter fused in, and only a join whose LEFT
//     child is such a leaf probes in parallel (index-scan leaves and upper
//     joins feed their parent serially) — which rule the serial/parallel
//     instruction split below mirrors.

#include "optimizer/join_order.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <utility>

#include "exec/filter.h"
#include "exec/index_scan.h"
#include "exec/joins.h"
#include "exec/scan.h"
#include "optimizer/planner_internal.h"

namespace ecodb::optimizer {

namespace {

using exec::ExprPtr;

/// Instructions charged per row by one residual-edge equality filter.
constexpr double kResidualFilterInstrPerRow = 4.0;

/// DP width cap: 3^12 split enumerations stay well under a millisecond
/// budget; beyond that the spec should be broken up.
constexpr int kMaxRelations = 12;

/// Rejects a relation whose variants could not all stand in for variant 0:
/// a null variant, or one with other column names / types or row count.
Status ValidateVariants(const TableAlternatives& rel) {
  if (rel.variants.empty() || rel.variants[0] == nullptr) {
    return Status::InvalidArgument("relation '" + rel.name +
                                   "' has no variants");
  }
  const storage::TableStorage& base = *rel.variants[0];
  for (size_t v = 1; v < rel.variants.size(); ++v) {
    const std::string which =
        "relation '" + rel.name + "' variant " + std::to_string(v);
    const storage::TableStorage* t = rel.variants[v];
    if (t == nullptr) return Status::InvalidArgument(which + " is null");
    const std::vector<catalog::Column>& a = base.schema().columns();
    const std::vector<catalog::Column>& b = t->schema().columns();
    const bool same_columns = std::equal(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const catalog::Column& x, const catalog::Column& y) {
          return x.name == y.name && x.type == y.type;
        });
    if (!same_columns) {
      return Status::InvalidArgument(
          which + " differs from variant 0 in column names or types");
    }
    if (t->row_count() != base.row_count()) {
      return Status::InvalidArgument(which +
                                     " differs from variant 0 in row count");
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> ScanColumns(const QuerySpec& spec, int rel) {
  const TableAlternatives& side = spec.Relations()[rel];
  const catalog::Schema& schema = side.variants[0]->schema();
  std::set<std::string> needed;
  if (side.columns.empty()) {
    for (const catalog::Column& c : schema.columns()) needed.insert(c.name);
  } else {
    needed.insert(side.columns.begin(), side.columns.end());
  }
  internal::CollectColumns(side.filter, &needed);
  for (const JoinEdge& e : spec.edges) {
    if (e.left_rel == rel) needed.insert(e.left_key);
    if (e.right_rel == rel) needed.insert(e.right_key);
  }
  for (const std::string& g : spec.group_by) needed.insert(g);
  for (const exec::AggregateItem& item : spec.aggregates) {
    internal::CollectColumns(item.input, &needed);
  }
  std::vector<std::string> cols;
  for (const std::string& name : needed) {
    if (schema.FindColumn(name) >= 0) cols.push_back(name);
  }
  return cols;
}

StatusOr<JoinGraph> JoinGraph::Analyze(const QuerySpec& spec) {
  const std::span<const TableAlternatives> rels = spec.Relations();
  const int n = static_cast<int>(rels.size());
  if (n > kMaxRelations) {
    return Status::InvalidArgument("join graph exceeds relation cap");
  }
  for (const TableAlternatives& rel : rels) {
    ECODB_RETURN_IF_ERROR(ValidateVariants(rel));
  }
  for (const JoinEdge& e : spec.edges) {
    if (e.left_rel < 0 || e.left_rel >= n || e.right_rel < 0 ||
        e.right_rel >= n || e.left_rel == e.right_rel) {
      return Status::InvalidArgument("join edge endpoints out of range");
    }
    if (rels[e.left_rel].variants[0]->schema().FindColumn(e.left_key) < 0 ||
        rels[e.right_rel].variants[0]->schema().FindColumn(e.right_key) <
            0) {
      return Status::NotFound("join edge key missing from relation schema");
    }
  }

  JoinGraph graph;
  graph.edges_ = spec.edges;
  graph.filtered_rows_.resize(n);
  graph.widths_.resize(n);
  graph.scan_columns_.resize(n);
  graph.stats_.resize(n);

  std::set<std::string> seen_everywhere;
  for (int rel = 0; rel < n; ++rel) {
    const TableAlternatives& side = rels[rel];
    const catalog::Schema& schema = side.variants[0]->schema();
    std::vector<std::string>& cols = graph.scan_columns_[rel];
    cols = ScanColumns(spec, rel);
    for (const std::string& name : cols) {
      // Join output columns must be nameable without JoinedSchema's "_r"
      // renames (residual filters and the differential oracle's canonical
      // projection address columns by name).
      if (!seen_everywhere.insert(name).second) {
        return Status::InvalidArgument(
            "column '" + name +
            "' appears in multiple relations; join graphs require unique "
            "column names");
      }
    }
    graph.widths_[rel] = internal::RowWidthOf(*side.variants[0], cols);

    if (side.stats != nullptr) {
      graph.stats_[rel] = *side.stats;
    } else {
      ECODB_RETURN_IF_ERROR(
          side.variants[0]->AnalyzeInto(&graph.stats_[rel]));
    }
    const double sel =
        Planner::EstimateSelectivity(side.filter, schema, graph.stats_[rel]);
    graph.filtered_rows_[rel] =
        static_cast<double>(side.variants[0]->row_count()) * sel;
  }

  // Edge selectivity 1 / max(ndv_l, ndv_r): the containment assumption,
  // automatically FK-aware when the parent side's key is dense.
  graph.edge_sel_.resize(spec.edges.size());
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    const JoinEdge& e = spec.edges[i];
    const int li = rels[e.left_rel].variants[0]->schema().FindColumn(
        e.left_key);
    const int ri = rels[e.right_rel].variants[0]->schema().FindColumn(
        e.right_key);
    const double ndv = std::max<double>(
        {1.0,
         static_cast<double>(graph.stats_[e.left_rel].columns[li]
                                 .distinct_values),
         static_cast<double>(graph.stats_[e.right_rel].columns[ri]
                                 .distinct_values)});
    graph.edge_sel_[i] = 1.0 / ndv;
  }

  if (!graph.Connected(graph.full_mask())) {
    return Status::InvalidArgument(
        "join graph is disconnected (cross products are not planned)");
  }
  return graph;
}

bool JoinGraph::Connected(uint32_t mask) const {
  if (mask == 0) return false;
  // Flood-fill from the lowest set bit along edges internal to `mask`.
  uint32_t reached = mask & static_cast<uint32_t>(-static_cast<int32_t>(mask));
  bool grew = true;
  while (grew && reached != mask) {
    grew = false;
    for (const JoinEdge& e : edges_) {
      const uint32_t lbit = uint32_t{1} << e.left_rel;
      const uint32_t rbit = uint32_t{1} << e.right_rel;
      if ((mask & lbit) == 0 || (mask & rbit) == 0) continue;
      const uint32_t joined = reached | lbit | rbit;
      if ((reached & (lbit | rbit)) != 0 && joined != reached) {
        reached = joined;
        grew = true;
      }
    }
  }
  return reached == mask;
}

double JoinGraph::EstimateRows(uint32_t mask) const {
  auto it = rows_memo_.find(mask);
  if (it != rows_memo_.end()) return it->second;
  double rows = 1.0;
  for (int rel = 0; rel < num_relations(); ++rel) {
    if (mask >> rel & 1) rows *= filtered_rows_[rel];
  }
  for (size_t i = 0; i < edges_.size(); ++i) {
    const JoinEdge& e = edges_[i];
    if ((mask >> e.left_rel & 1) && (mask >> e.right_rel & 1)) {
      rows *= edge_sel_[i];
    }
  }
  rows_memo_.emplace(mask, rows);
  return rows;
}

std::vector<int> JoinGraph::CrossingEdgeIndexes(uint32_t left_mask,
                                                uint32_t right_mask) const {
  std::vector<int> out;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const JoinEdge& e = edges_[i];
    const bool l_in_left = left_mask >> e.left_rel & 1;
    const bool l_in_right = right_mask >> e.left_rel & 1;
    const bool r_in_left = left_mask >> e.right_rel & 1;
    const bool r_in_right = right_mask >> e.right_rel & 1;
    if ((l_in_left && r_in_right) || (l_in_right && r_in_left)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

namespace {

double MaskWidth(const JoinGraph& graph, uint32_t mask) {
  double width = 0.0;
  for (int rel = 0; rel < graph.num_relations(); ++rel) {
    if (mask >> rel & 1) width += graph.row_width(rel);
  }
  return width;
}

/// The key range the relation's filter imposes on its indexed column;
/// false when the relation has no usable index-scan path.
bool IndexRange(const TableAlternatives& side, int64_t* lo, int64_t* hi) {
  return side.index != nullptr && !side.index_column.empty() &&
         Planner::ExtractKeyRange(side.filter, side.index_column, lo, hi);
}

/// One way to read a relation: which variant, through which access path.
struct LeafChoice {
  int variant = 0;
  AccessPath path = AccessPath::kTableScan;
};

/// Every way a relation can be read, variant-major: the seq scan always,
/// the index scan when the filter constrains the indexed column to a range.
std::vector<LeafChoice> LeafChoices(const TableAlternatives& side) {
  int64_t lo = INT64_MIN, hi = INT64_MAX;
  const bool indexed = IndexRange(side, &lo, &hi);
  std::vector<LeafChoice> choices;
  for (int v = 0; v < static_cast<int>(side.variants.size()); ++v) {
    choices.push_back({v, AccessPath::kTableScan});
    if (indexed) choices.push_back({v, AccessPath::kIndexScan});
  }
  return choices;
}

/// Rejects a hand-built leaf the relation cannot realize: a variant out of
/// range, or an index scan without an index range to walk.
Status CheckLeaf(const TableAlternatives& side, const PlanJoinNode& node) {
  if (node.variant < 0 ||
      node.variant >= static_cast<int>(side.variants.size()) ||
      side.variants[node.variant] == nullptr) {
    return Status::InvalidArgument("join tree leaf variant out of range");
  }
  int64_t lo = INT64_MIN, hi = INT64_MAX;
  if (node.path == AccessPath::kIndexScan && !IndexRange(side, &lo, &hi)) {
    return Status::InvalidArgument(
        "index-scan leaf on relation '" + side.name +
        "' without a usable index range");
  }
  return Status::OK();
}

/// Index-path demand: real index page walk + heap-page fetch estimate.
ResourceEstimate IndexScanDemand(const storage::TableStorage& table,
                                 const storage::BTreeIndex& index,
                                 int64_t lo, int64_t hi,
                                 double estimated_matches,
                                 size_t projected_columns) {
  ResourceEstimate demand;
  const double index_pages =
      static_cast<double>(index.PagesForRange(lo, hi));
  const double row_width =
      std::max(1, table.schema().RowWidthBytes());
  const double total_pages = std::max(
      1.0, static_cast<double>(table.row_count()) * row_width / 8192.0);
  // Coupon-collector estimate of distinct heap pages touched by m rows.
  const double heap_pages =
      total_pages * (1.0 - std::exp(-estimated_matches / total_pages));
  if (table.device() != nullptr) {
    demand.random_page_reads[table.device()] +=
        static_cast<uint64_t>(index_pages + heap_pages + 0.5);
  }
  demand.cpu_instructions =
      20.0 * static_cast<double>(index.height()) +
      estimated_matches * static_cast<double>(projected_columns);
  return demand;
}

/// Scan + pushed-down filter demand of relation `rel` read through
/// `choice`: the zone-pruned morsel scan with the filter fused in, or the
/// B-tree range walk with the filter applied to the fetched rows.
ResourceEstimate LeafDemand(const QuerySpec& spec, const JoinGraph& graph,
                            int rel, LeafChoice choice,
                            const exec::CostConstants& k) {
  const TableAlternatives& side = spec.Relations()[rel];
  const storage::TableStorage& t = *side.variants[choice.variant];
  const std::vector<std::string>& cols = graph.scan_columns(rel);
  int64_t lo = INT64_MIN, hi = INT64_MAX;
  if (choice.path == AccessPath::kIndexScan && IndexRange(side, &lo, &hi)) {
    const double rows = graph.filtered_rows(rel);
    ResourceEstimate d =
        IndexScanDemand(t, *side.index, lo, hi, rows, cols.size());
    // Index descents are pointer chases on one core; the executor does not
    // parallelize this path.
    d.serial_cpu_instructions = d.cpu_instructions;
    d.cpu_instructions = 0.0;
    // Exact residual filtering over the fetched rows.
    if (side.filter != nullptr) {
      d.serial_cpu_instructions += side.filter->InstructionsPerRow() * rows;
    }
    return d;
  }
  ResourceEstimate d = internal::PrunedScanDemand(
      t, internal::ToIndexes(t.schema(), cols), side.filter, k.decode_scale);
  if (side.filter != nullptr) {
    d.cpu_instructions += side.filter->InstructionsPerRow() *
                          static_cast<double>(t.row_count());
  }
  return d;
}

/// Adds one join node's demand on top of its children's. `left_is_scan`
/// decides probe attribution: a seq-scan leaf on the left is a morsel
/// source, so its probe parallelizes; every other left child probes
/// serially. The primary edge is the first crossing edge by spec order —
/// the same rule tree construction uses.
Status AddJoinDemand(const JoinGraph& graph, JoinAlgorithm algo,
                     uint32_t lmask, uint32_t rmask, bool left_is_scan,
                     const exec::CostConstants& k, const CostModel& model,
                     ResourceEstimate* demand, double* resident_bytes) {
  const std::vector<int> crossing = graph.CrossingEdgeIndexes(lmask, rmask);
  if (crossing.empty()) {
    return Status::InvalidArgument(
        "join node has no crossing equi-join edge (cross product)");
  }
  const double lrows = graph.EstimateRows(lmask);
  const double rrows = graph.EstimateRows(rmask);
  const double rows_primary =
      lrows * rrows * graph.edge_selectivity(crossing[0]);
  switch (algo) {
    case JoinAlgorithm::kHash: {
      const double build_bytes = rrows * (MaskWidth(graph, rmask) + 32.0);
      demand->serial_cpu_instructions += k.hash_build_per_row * rrows;
      const double probe = k.hash_probe_per_row * lrows +
                           k.output_per_row * rows_primary;
      if (left_is_scan) {
        demand->cpu_instructions += probe;
      } else {
        demand->serial_cpu_instructions += probe;
      }
      demand->dram_traffic_bytes += static_cast<uint64_t>(build_bytes);
      *resident_bytes += build_bytes;
      break;
    }
    case JoinAlgorithm::kMerge: {
      demand->Merge(model.SortDemand(lrows, 1));
      demand->Merge(model.SortDemand(rrows, 1));
      demand->serial_cpu_instructions +=
          2.0 * (lrows + rrows) + k.output_per_row * rows_primary;
      break;
    }
    case JoinAlgorithm::kNestedLoop: {
      demand->serial_cpu_instructions +=
          k.nl_join_inner_per_pair * lrows * rrows +
          k.output_per_row * rows_primary;
      break;
    }
  }
  // Residual crossing edges run as stacked equality filters over the
  // primary join's output (each one thins the stream for the next).
  double rows = rows_primary;
  for (size_t j = 1; j < crossing.size(); ++j) {
    demand->serial_cpu_instructions += kResidualFilterInstrPerRow * rows;
    rows *= graph.edge_selectivity(crossing[j]);
  }
  return Status::OK();
}

/// Two-phase pricing: residency energy needs the plan duration, so price
/// once for seconds, set resident-byte-seconds, and price again. Works on
/// a copy so the caller's accumulating demand stays duration-free.
PlanCost PriceWithResidency(const CostModel& model, ResourceEstimate demand,
                            double resident_bytes, int dop, int pstate) {
  PlanCost cost = model.Price(demand, dop, pstate);
  if (resident_bytes > 0) {
    demand.resident_byte_seconds = resident_bytes * cost.seconds;
    cost = model.Price(demand, dop, pstate);
  }
  return cost;
}

/// Recursive pricing walk over an explicit join tree. Accumulates demand
/// and resident bytes bottom-up with the same arithmetic (and the same
/// merge order: left subtree, then right subtree, then this node's join
/// terms) the DP enumerator uses, so DP-chosen and hand-built trees price
/// through one code path.
StatusOr<uint32_t> WalkJoinTree(const QuerySpec& spec, const JoinGraph& graph,
                                const std::vector<PlanJoinNode>& nodes,
                                int index, const exec::CostConstants& k,
                                const CostModel& model,
                                ResourceEstimate* demand,
                                double* resident_bytes) {
  if (index < 0 || index >= static_cast<int>(nodes.size())) {
    return Status::InvalidArgument("join tree node index out of range");
  }
  const PlanJoinNode& node = nodes[index];
  if (node.relation >= 0) {
    if (node.relation >= graph.num_relations()) {
      return Status::InvalidArgument("join tree leaf relation out of range");
    }
    ECODB_RETURN_IF_ERROR(CheckLeaf(spec.Relations()[node.relation], node));
    demand->Merge(LeafDemand(spec, graph, node.relation,
                             {node.variant, node.path}, k));
    return uint32_t{1} << node.relation;
  }
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t lmask,
      WalkJoinTree(spec, graph, nodes, node.left, k, model, demand,
                   resident_bytes));
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t rmask,
      WalkJoinTree(spec, graph, nodes, node.right, k, model, demand,
                   resident_bytes));
  if ((lmask & rmask) != 0) {
    return Status::InvalidArgument("join tree repeats a relation");
  }
  const PlanJoinNode& left = nodes[node.left];
  const bool left_is_scan =
      left.relation >= 0 && left.path == AccessPath::kTableScan;
  ECODB_RETURN_IF_ERROR(AddJoinDemand(graph, node.algo, lmask, rmask,
                                      left_is_scan, k, model, demand,
                                      resident_bytes));
  return lmask | rmask;
}

/// Estimated output cardinality of the tail before the LIMIT clamp: the
/// root's rows, reduced to the group count when aggregating (an NDV
/// product bound, taking each group column's NDV from the first relation
/// whose schema has it).
double TailOutputRows(const QuerySpec& spec, const JoinGraph& graph,
                      double root_rows) {
  if (spec.aggregates.empty()) return root_rows;
  double groups = 1.0;
  for (const std::string& g : spec.group_by) {
    double ndv = 16.0;
    for (int rel = 0; rel < graph.num_relations(); ++rel) {
      const catalog::Schema& schema =
          spec.Relations()[rel].variants[0]->schema();
      const int i = schema.FindColumn(g);
      if (i >= 0 &&
          i < static_cast<int>(graph.stats(rel).columns.size())) {
        ndv = std::max<double>(
            1.0, static_cast<double>(
                     graph.stats(rel).columns[i].distinct_values));
        break;
      }
    }
    groups *= ndv;
  }
  return std::min(root_rows, spec.group_by.empty() ? 1.0 : groups);
}

/// The one pricing routine: tree walk + tail + residency.
StatusOr<PlanCost> PriceGraphPlan(const QuerySpec& spec,
                                  const JoinGraph& graph,
                                  const PhysicalPlan& plan,
                                  const CostModel& model) {
  if (plan.join_root < 0 || plan.join_nodes.empty()) {
    return Status::InvalidArgument("plan has no join tree");
  }
  const exec::CostConstants& k = model.params().costs;
  ResourceEstimate demand;
  double resident_bytes = 0.0;
  ECODB_ASSIGN_OR_RETURN(
      const uint32_t mask,
      WalkJoinTree(spec, graph, plan.join_nodes, plan.join_root, k, model,
                   &demand, &resident_bytes));
  if (mask != graph.full_mask()) {
    return Status::InvalidArgument("join tree does not cover all relations");
  }
  const double root_rows = graph.EstimateRows(mask);
  internal::PriceTail(spec, plan.use_topk, model, root_rows,
                      TailOutputRows(spec, graph, root_rows),
                      MaskWidth(graph, mask), &demand);
  return PriceWithResidency(model, std::move(demand), resident_bytes,
                            plan.dop, plan.pstate);
}

/// One DP table entry: the best-priced join tree covering `mask`.
struct SubPlan {
  bool valid = false;
  int node = -1;  // arena index of this subtree's root
  ResourceEstimate demand;
  double resident_bytes = 0.0;
};

/// One way to produce a DP entry: a leaf choice (one-relation masks) or a
/// split at `lmask` joined with `algo`, plus the top-k choice when it
/// covers all relations.
struct Candidate {
  LeafChoice leaf;
  uint32_t lmask = 0;
  JoinAlgorithm algo = JoinAlgorithm::kHash;
  bool use_topk = false;
  ResourceEstimate demand;
  double resident_bytes = 0.0;
  double scalar = std::numeric_limits<double>::infinity();
};

/// Appends a join node for the (lmask, rmask) split to the arena: primary
/// edge = first crossing edge by spec order, oriented so left_key names a
/// left-subtree column; the rest become residual filter edges.
int EmitJoinNode(const JoinGraph& graph, std::vector<PlanJoinNode>* arena,
                 int left_node, int right_node, JoinAlgorithm algo,
                 uint32_t lmask, uint32_t rmask) {
  const std::vector<int> crossing = graph.CrossingEdgeIndexes(lmask, rmask);
  PlanJoinNode node;
  node.left = left_node;
  node.right = right_node;
  node.algo = algo;
  const JoinEdge& p = graph.edge(crossing[0]);
  const bool p_left_in_lmask = lmask >> p.left_rel & 1;
  node.left_key = p_left_in_lmask ? p.left_key : p.right_key;
  node.right_key = p_left_in_lmask ? p.right_key : p.left_key;
  for (size_t j = 1; j < crossing.size(); ++j) {
    node.residual_edges.push_back(graph.edge(crossing[j]));
  }
  const uint32_t mask = lmask | rmask;
  node.est_rows = graph.EstimateRows(mask);
  node.est_bytes = node.est_rows * MaskWidth(graph, mask);
  arena->push_back(std::move(node));
  return static_cast<int>(arena->size()) - 1;
}

/// Copies the subtree rooted at `index` from the DP arena (which holds one
/// node per explored mask, chosen or not) into `out`, returning the new
/// root index. Children precede parents, so indexes stay valid.
int CompactTree(const std::vector<PlanJoinNode>& arena, int index,
                std::vector<PlanJoinNode>* out) {
  const PlanJoinNode& node = arena[index];
  PlanJoinNode copy = node;
  if (node.relation < 0) {
    copy.left = CompactTree(arena, node.left, out);
    copy.right = CompactTree(arena, node.right, out);
  }
  out->push_back(std::move(copy));
  return static_cast<int>(out->size()) - 1;
}

double SumIntermediateBytes(const std::vector<PlanJoinNode>& nodes,
                            int root) {
  double bytes = 0.0;
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    if (nodes[i].relation < 0 && i != root) bytes += nodes[i].est_bytes;
  }
  return bytes;
}

}  // namespace

StatusOr<PhysicalPlan> Planner::ChoosePlan(const QuerySpec& spec,
                                           const Objective& objective) const {
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  const std::span<const TableAlternatives> rels = spec.Relations();
  const exec::CostConstants& k = model_->params().costs;
  const int n = graph.num_relations();
  const uint32_t full = graph.full_mask();

  std::vector<JoinAlgorithm> algos;
  if (options_.enumerate_join_algorithms) {
    algos = {JoinAlgorithm::kHash, JoinAlgorithm::kMerge,
             JoinAlgorithm::kNestedLoop};
  } else {
    algos = {JoinAlgorithm::kHash};
  }
  const int num_pstates =
      options_.enumerate_pstates ? model_->platform()->cpu().num_pstates()
                                 : 1;
  // ORDER BY + LIMIT adds the fused top-k as a priced alternative: it wins
  // at small k (bounded heap, no spill) and loses at k ~ n (the candidate
  // merge covers all rows serially), so the fallback rule is purely
  // cost-based.
  std::vector<bool> topk_choices = {false};
  if (!spec.order_by.empty() && spec.limit.has_value()) {
    topk_choices.push_back(true);
  }
  // The tail's inputs are the same for every tree over all relations.
  const double root_rows = graph.EstimateRows(full);
  const double tail_rows = TailOutputRows(spec, graph, root_rows);
  const double root_width = MaskWidth(graph, full);

  std::optional<PhysicalPlan> best;
  for (int dop : options_.dops) {
    for (int pstate = 0; pstate < num_pstates; ++pstate) {
      // Keeps `cand` in `winner` when it prices lower. Partial masks
      // compete on their own subplan price; the full mask competes on the
      // whole plan's price, tail included, once per top-k choice — the
      // price the chosen plan is billed at.
      auto offer = [&](uint32_t mask, Candidate cand,
                       std::optional<Candidate>* winner) {
        const bool root = mask == full;
        for (bool use_topk : root ? topk_choices : std::vector<bool>{false}) {
          ResourceEstimate demand = cand.demand;
          if (root) {
            internal::PriceTail(spec, use_topk, *model_, root_rows, tail_rows,
                                root_width, &demand);
          }
          const double scalar =
              PriceWithResidency(*model_, std::move(demand),
                                 cand.resident_bytes, dop, pstate)
                  .Scalarize(objective);
          if (!winner->has_value() || scalar < (*winner)->scalar) {
            cand.use_topk = use_topk;
            cand.scalar = scalar;
            *winner = cand;
          }
        }
      };

      // ---- DP over connected subgraphs at this (dop, pstate) ----
      // Ascending mask order is a valid DP order: every proper submask is
      // numerically smaller. One-relation masks choose the leaf's variant
      // and access path; the submask loop enumerates ordered (l, r) pairs,
      // so both hash-build orientations and bushy shapes are priced.
      std::vector<PlanJoinNode> arena;
      std::vector<SubPlan> subs(uint64_t{1} << n);
      bool use_topk = false;
      for (uint32_t mask = 1; mask <= full; ++mask) {
        std::optional<Candidate> winner;
        if (std::has_single_bit(mask)) {
          const int rel = std::countr_zero(mask);
          for (const LeafChoice& choice : LeafChoices(rels[rel])) {
            Candidate cand;
            cand.leaf = choice;
            cand.demand = LeafDemand(spec, graph, rel, choice, k);
            offer(mask, std::move(cand), &winner);
          }
        } else {
          for (uint32_t l = (mask - 1) & mask; l != 0; l = (l - 1) & mask) {
            const uint32_t r = mask ^ l;
            const SubPlan& ls = subs[l];
            const SubPlan& rs = subs[r];
            if (!ls.valid || !rs.valid) continue;
            if (graph.CrossingEdgeIndexes(l, r).empty()) continue;
            const PlanJoinNode& left = arena[ls.node];
            const bool left_is_scan =
                left.relation >= 0 && left.path == AccessPath::kTableScan;
            for (JoinAlgorithm algo : algos) {
              Candidate cand;
              cand.lmask = l;
              cand.algo = algo;
              cand.demand = ls.demand;
              cand.demand.Merge(rs.demand);
              cand.resident_bytes = ls.resident_bytes + rs.resident_bytes;
              if (!AddJoinDemand(graph, algo, l, r, left_is_scan, k, *model_,
                                 &cand.demand, &cand.resident_bytes)
                       .ok()) {
                continue;
              }
              offer(mask, std::move(cand), &winner);
            }
          }
        }
        if (!winner.has_value()) continue;
        SubPlan& entry = subs[mask];
        if (winner->lmask == 0) {
          PlanJoinNode leaf;
          leaf.relation = std::countr_zero(mask);
          leaf.variant = winner->leaf.variant;
          leaf.path = winner->leaf.path;
          leaf.est_rows = graph.filtered_rows(leaf.relation);
          leaf.est_bytes = leaf.est_rows * graph.row_width(leaf.relation);
          arena.push_back(std::move(leaf));
          entry.node = static_cast<int>(arena.size()) - 1;
        } else {
          entry.node =
              EmitJoinNode(graph, &arena, subs[winner->lmask].node,
                           subs[mask ^ winner->lmask].node, winner->algo,
                           winner->lmask, mask ^ winner->lmask);
        }
        entry.demand = std::move(winner->demand);
        entry.resident_bytes = winner->resident_bytes;
        entry.valid = true;
        if (mask == full) use_topk = winner->use_topk;
      }
      if (!subs[full].valid) {
        return Status::Internal("join DP found no plan for a connected graph");
      }

      PhysicalPlan plan;
      plan.dop = dop;
      plan.pstate = pstate;
      plan.use_topk = use_topk;
      plan.join_root = CompactTree(arena, subs[full].node, &plan.join_nodes);
      plan.est_intermediate_bytes =
          SumIntermediateBytes(plan.join_nodes, plan.join_root);
      plan.output_rows =
          spec.limit.has_value()
              ? std::min(tail_rows, static_cast<double>(*spec.limit))
              : tail_rows;
      ECODB_ASSIGN_OR_RETURN(plan.cost,
                             PriceGraphPlan(spec, graph, plan, *model_));
      if (!best.has_value() || plan.cost.Scalarize(objective) <
                                   best->cost.Scalarize(objective)) {
        best = std::move(plan);
      }
    }
  }
  if (!best.has_value()) return Status::Internal("no plan enumerated");
  for (const PlanJoinNode& node : best->join_nodes) {
    if (node.relation == 0) {
      best->left_variant = node.variant;
      best->left_path = node.path;
    }
  }
  return *best;
}

StatusOr<PlanCost> Planner::PricePlan(const QuerySpec& spec,
                                      const PhysicalPlan& plan) const {
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  return PriceGraphPlan(spec, graph, plan, *model_);
}

namespace {

/// Recursive operator construction for one join-tree node.
StatusOr<exec::OperatorPtr> BuildJoinNode(const QuerySpec& spec,
                                          const PhysicalPlan& plan,
                                          int index) {
  using exec::OperatorPtr;
  if (index < 0 || index >= static_cast<int>(plan.join_nodes.size())) {
    return Status::InvalidArgument("join tree node index out of range");
  }
  const PlanJoinNode& node = plan.join_nodes[index];
  if (node.relation >= 0) {
    const std::span<const TableAlternatives> rels = spec.Relations();
    if (node.relation >= static_cast<int>(rels.size())) {
      return Status::InvalidArgument("join tree leaf relation out of range");
    }
    const TableAlternatives& side = rels[node.relation];
    ECODB_RETURN_IF_ERROR(CheckLeaf(side, node));
    const storage::TableStorage& t = *side.variants[node.variant];
    std::vector<std::string> cols = ScanColumns(spec, node.relation);
    int64_t lo = INT64_MIN, hi = INT64_MAX;
    if (node.path == AccessPath::kIndexScan && IndexRange(side, &lo, &hi)) {
      OperatorPtr scan = std::make_unique<exec::IndexScanOp>(
          &t, side.index, std::move(cols), lo, hi);
      if (side.filter != nullptr) {
        scan = std::make_unique<exec::FilterOp>(std::move(scan), side.filter);
      }
      return scan;
    }
    // Morsel scan with zone-map pruning and the exact filter fused in;
    // also the morsel source that lets a directly-attached hash join probe
    // in parallel.
    return OperatorPtr(std::make_unique<exec::TableScanOp>(
        &t, std::move(cols), side.filter, side.filter));
  }

  ECODB_ASSIGN_OR_RETURN(OperatorPtr left,
                         BuildJoinNode(spec, plan, node.left));
  ECODB_ASSIGN_OR_RETURN(OperatorPtr right,
                         BuildJoinNode(spec, plan, node.right));
  OperatorPtr joined;
  switch (node.algo) {
    case JoinAlgorithm::kHash:
      joined = std::make_unique<exec::HashJoinOp>(
          std::move(left), std::move(right), node.left_key, node.right_key);
      break;
    case JoinAlgorithm::kMerge:
      joined = std::make_unique<exec::MergeJoinOp>(
          std::move(left), std::move(right), node.left_key, node.right_key);
      break;
    case JoinAlgorithm::kNestedLoop:
      // Column names are unique across relations (Analyze enforces it), so
      // the joined schema never renames and Col(right_key) resolves.
      joined = std::make_unique<exec::NestedLoopJoinOp>(
          std::move(left), std::move(right),
          exec::Col(node.left_key) == exec::Col(node.right_key));
      break;
  }
  for (const JoinEdge& e : node.residual_edges) {
    joined = std::make_unique<exec::FilterOp>(
        std::move(joined), exec::Col(e.left_key) == exec::Col(e.right_key));
  }
  return joined;
}

}  // namespace

StatusOr<exec::OperatorPtr> Planner::BuildOperator(
    const QuerySpec& spec, const PhysicalPlan& plan) {
  if (plan.join_root < 0 || plan.join_nodes.empty()) {
    return Status::InvalidArgument("plan has no join tree");
  }
  ECODB_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                         BuildJoinNode(spec, plan, plan.join_root));
  return internal::FinishOperatorTree(spec, plan, std::move(root));
}

StatusOr<PhysicalPlan> CanonicalJoinPlan(const QuerySpec& spec) {
  ECODB_ASSIGN_OR_RETURN(const JoinGraph graph, JoinGraph::Analyze(spec));
  PhysicalPlan plan;
  std::vector<PlanJoinNode>& nodes = plan.join_nodes;

  PlanJoinNode first;
  first.relation = 0;
  nodes.push_back(first);
  int root = 0;
  uint32_t mask = 1;
  while (mask != graph.full_mask()) {
    // Next relation: the far endpoint of the first spec-order edge leaving
    // the current set. Purely structural — no estimates involved.
    int next_rel = -1;
    for (int i = 0; i < graph.num_edges() && next_rel < 0; ++i) {
      const JoinEdge& e = graph.edge(i);
      const bool lin = mask >> e.left_rel & 1;
      const bool rin = mask >> e.right_rel & 1;
      if (lin != rin) next_rel = lin ? e.right_rel : e.left_rel;
    }
    if (next_rel < 0) {
      return Status::Internal("canonical plan failed to grow a connected set");
    }
    PlanJoinNode leaf;
    leaf.relation = next_rel;
    nodes.push_back(leaf);
    const int leaf_index = static_cast<int>(nodes.size()) - 1;

    const std::vector<int> crossing =
        graph.CrossingEdgeIndexes(mask, uint32_t{1} << next_rel);
    PlanJoinNode join;
    join.left = root;
    join.right = leaf_index;
    join.algo = JoinAlgorithm::kHash;
    const JoinEdge& p = graph.edge(crossing[0]);
    const bool p_left_in_mask = mask >> p.left_rel & 1;
    join.left_key = p_left_in_mask ? p.left_key : p.right_key;
    join.right_key = p_left_in_mask ? p.right_key : p.left_key;
    for (size_t j = 1; j < crossing.size(); ++j) {
      join.residual_edges.push_back(graph.edge(crossing[j]));
    }
    nodes.push_back(std::move(join));
    root = static_cast<int>(nodes.size()) - 1;
    mask |= uint32_t{1} << next_rel;
  }
  plan.join_root = root;
  return plan;
}

}  // namespace ecodb::optimizer
