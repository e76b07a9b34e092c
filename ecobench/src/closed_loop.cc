// join_mix and scan_mix: one client in a closed loop calling
// EcoDb::Execute on a seeded query sequence.
//
// The first kModeledQueries queries of the sequence form the modeled
// prefix: they run first, on a freshly set-up database, in the same order
// on every run, so the modeled metrics over them are a pure function of
// the seed. The loop then keeps going until --seconds of host time have
// passed; every query counts toward the host-clock metrics and its result
// is checked against the reference answer (oracle.h).

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/ecodb.h"
#include "exec/expr.h"
#include "oracle.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace ecobench {

namespace {

using ecodb::Status;
using ecodb::StatusOr;
using ecodb::core::DbConfig;
using ecodb::core::EcoDb;
using ecodb::exec::AggFunc;
using ecodb::exec::And;
using ecodb::exec::Col;
using ecodb::exec::Lit;
using ecodb::exec::LitDate;
using ecodb::optimizer::Objective;
using ecodb::optimizer::PhysicalPlan;
using ecodb::optimizer::QuerySpec;

constexpr size_t kModeledQueries = 1000;
constexpr int kParams = 8;          // substitution parameters per shape
// setup_s is the median of these, spread over the run; a join set-up takes
// about 0.1 s, a scan set-up about 0.5 s.
constexpr int kJoinSetupReps = 21;
constexpr int kScanSetupReps = 9;
constexpr int kReconcileQueries = 200;
constexpr int kPrefixReps = 9;
constexpr size_t kCapacityPasses = 50;
// slo_capacity_qps: the highest rate on a geometric ladder from 10/s up in
// 1% steps at which the modeled p99 stays within 100 ms.
constexpr double kSloLimitMs = 100.0;
constexpr double kLadderStartQps = 10.0;
constexpr double kLadderRatio = 1.01;
constexpr int kLadderSteps = 400;
// The traced run must reconcile with the facade: plan + build + run cover
// at least this share of the query span, and the traced median query time
// stays within this share of the untraced one.
constexpr double kMinSpanCoverage = 0.98;
constexpr double kMaxTraceOverheadShare = 0.15;
constexpr double kLoopCapSeconds = 150.0;  // hard stop, far above --seconds

constexpr double kJoinScaleFactor = 2.0;
constexpr double kScanScaleFactor = 4.0;
constexpr double kScanLambda = 0.05;
constexpr uint64_t kSortBudgetBytes = 64 * 1024;
constexpr uint64_t kTopBrands = 5;
constexpr double kDiscountLo = 0.02;
constexpr double kDiscountHi = 0.09;
constexpr int64_t kTopkDays = 7;
constexpr uint64_t kTopkRows = 10;
constexpr int64_t kSortDays = 90;

/// One (shape, parameter) query. `key` names it in the expected results;
/// both objectives of a join shape share the key, since the plan may differ
/// but the rows may not.
struct QueryKind {
  std::string key;
  QuerySpec spec;
  std::string order_column;  // first ORDER BY key, "" when unordered
  bool descending = false;
  /// Output columns the result is checked on, and the reference answer.
  std::vector<std::string> columns;
  ResultFingerprint expected;
};

/// The columns a spec's result is checked on: group keys + aggregates, or
/// every projected column.
std::vector<std::string> ResultColumns(const QuerySpec& spec) {
  std::vector<std::string> columns;
  if (!spec.aggregates.empty()) {
    columns = spec.group_by;
    for (const auto& item : spec.aggregates) columns.push_back(item.name);
  } else if (!spec.relations.empty()) {
    for (const auto& rel : spec.relations) {
      columns.insert(columns.end(), rel.columns.begin(), rel.columns.end());
    }
  } else {
    columns = spec.left.columns;
  }
  return columns;
}

QueryKind Kind(std::string key, QuerySpec spec, std::string order_column) {
  QueryKind kind;
  kind.key = std::move(key);
  kind.columns = ResultColumns(spec);
  kind.spec = std::move(spec);
  kind.descending = !order_column.empty();  // every ORDER BY here is DESC
  kind.order_column = std::move(order_column);
  return kind;
}

struct Slot {
  const QueryKind* kind = nullptr;
  Objective objective;
};

/// splitmix64: a portable, seedable generator (std distributions are not
/// specified bit-for-bit across standard libraries).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// The seeded query sequence: cycles over every (shape, objective) slot in
/// a freshly shuffled order, each slot drawing its parameter at random, so
/// the shape mix is fixed and only order and parameters follow the seed.
class Sequence {
 public:
  Sequence(const std::vector<std::vector<QueryKind>>& shapes,
           std::vector<Objective> objectives, uint64_t seed)
      : shapes_(shapes), objectives_(std::move(objectives)), rng_(seed) {}

  Slot At(size_t i) {
    while (slots_.size() <= i) AppendCycle();
    return slots_[i];
  }

 private:
  void AppendCycle() {
    std::vector<Slot> cycle;
    for (const auto& shape : shapes_) {
      for (const Objective& objective : objectives_) {
        cycle.push_back({&shape[rng_.Below(shape.size())], objective});
      }
    }
    for (size_t i = cycle.size(); i > 1; --i) {
      std::swap(cycle[i - 1], cycle[rng_.Below(i)]);
    }
    slots_.insert(slots_.end(), cycle.begin(), cycle.end());
  }

  const std::vector<std::vector<QueryKind>>& shapes_;
  std::vector<Objective> objectives_;
  Rng rng_;
  std::vector<Slot> slots_;
};

/// One executed query with its host timings (microseconds, raw).
struct Executed {
  ecodb::exec::QueryResultSet rows;
  ecodb::exec::QueryStats stats;
  PhysicalPlan plan;
  double total_us = 0.0;
  double plan_us = 0.0;
  double build_us = 0.0;
  double run_us = 0.0;
};

StatusOr<Executed> ExecutePlain(EcoDb* db, const Slot& slot) {
  const double start = NowUs();
  ECODB_ASSIGN_OR_RETURN(ecodb::core::QueryOutcome outcome,
                         db->Execute(slot.kind->spec, slot.objective));
  Executed ex;
  ex.total_us = NowUs() - start;
  ex.rows = std::move(outcome.rows);
  ex.stats = outcome.stats;
  ex.plan = *outcome.plan;
  return ex;
}

/// The steps of EcoDb::Execute, one span each: plan, build, run.
StatusOr<Executed> ExecuteTraced(EcoDb* db, const DbConfig& config,
                                 const Slot& slot, Tracer* tracer,
                                 int64_t request) {
  Executed ex;
  const int64_t root = tracer->Begin("query", -1, request);
  const int64_t plan_span = tracer->Begin("optimizer.plan", root, request);
  ECODB_ASSIGN_OR_RETURN(
      ex.plan, db->planner()->ChoosePlan(slot.kind->spec, slot.objective));
  ex.plan_us = tracer->End(plan_span);
  const int64_t build_span = tracer->Begin("optimizer.build", root, request);
  ECODB_ASSIGN_OR_RETURN(
      ecodb::exec::OperatorPtr op,
      db->planner()->BuildOperator(slot.kind->spec, ex.plan));
  ex.build_us = tracer->End(build_span);
  const int64_t run_span = tracer->Begin("exec.run", root, request);
  ecodb::exec::ExecOptions options = config.exec_options;
  options.dop = ex.plan.dop;
  options.pstate = ex.plan.pstate;
  ecodb::exec::ExecContext ctx(db->platform(), options);
  ECODB_ASSIGN_OR_RETURN(ex.rows, ecodb::exec::CollectAll(op.get(), &ctx));
  ex.stats = ctx.Finish();
  ex.run_us = tracer->End(run_span);
  ex.total_us = tracer->End(root);
  return ex;
}

/// Decodes the chosen variant's projected columns, the storage layer's
/// share of a scan; returns raw microseconds.
double TimeReadColumns(const QuerySpec& spec, const PhysicalPlan& plan) {
  std::vector<std::pair<const ecodb::storage::TableStorage*,
                        const std::vector<std::string>*>>
      reads;
  if (spec.relations.empty()) {
    reads.push_back({spec.left.variants[static_cast<size_t>(plan.left_variant)],
                     &spec.left.columns});
  } else {
    for (const auto& rel : spec.relations) {
      reads.push_back({rel.variants[0], &rel.columns});
    }
  }
  const double start = NowUs();
  for (const auto& [table, columns] : reads) {
    for (const std::string& name : *columns) {
      auto column = table->ReadColumn(table->schema().FindColumn(name));
      if (!column.ok()) return -1.0;
    }
  }
  return NowUs() - start;
}

/// The closed loop's SLO capacity: the highest ladder rate at which the
/// modeled prefix, offered as seeded Poisson arrivals to the engine serving
/// one query at a time (FIFO, Lindley's recursion over the modeled service
/// times, cycled kCapacityPasses times), keeps its arrival-to-end p99 within
/// the limit. Binary search: a denser offer of the same draws never waits
/// less.
double SloCapacity(const std::vector<double>& service_ms, uint64_t seed) {
  if (service_ms.empty()) return 0.0;
  Rng rng(seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  const size_t n = service_ms.size() * kCapacityPasses;
  std::vector<double> gaps(n);  // unit-rate exponential interarrivals
  for (double& gap : gaps) {
    gap = -std::log((static_cast<double>(rng.Next() >> 11) + 0.5) /
                    9007199254740992.0);
  }
  auto meets = [&](double rate) {
    std::vector<double> latency(n);
    double wait_ms = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) {
        const double previous_ms = service_ms[(i - 1) % service_ms.size()];
        wait_ms =
            std::max(0.0, wait_ms + previous_ms - gaps[i] * 1000.0 / rate);
      }
      latency[i] = wait_ms + service_ms[i % service_ms.size()];
    }
    return Percentile(std::move(latency), 0.99) <= kSloLimitMs;
  };
  const std::vector<double> ladder =
      RateLadder(kLadderStartQps, kLadderRatio, kLadderSteps);
  double best = 0.0;
  size_t lo = 0, hi = ladder.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (meets(ladder[mid])) {
      best = ladder[mid];
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return best;
}

double QError(double estimate, double actual) {
  estimate = std::max(estimate, 1e-12);
  actual = std::max(actual, 1e-12);
  return std::max(estimate / actual, actual / estimate);
}

DbConfig EngineConfig() {
  DbConfig config;  // proportional platform, one SSD
  config.derive_dop_ladder = false;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  config.planner_options.dops =
      ecodb::optimizer::DopLadder(static_cast<int>(std::min(4u, cores)));
  return config;
}

// --- join_mix ---------------------------------------------------------------

struct JoinSetup {
  std::unique_ptr<EcoDb> db;
  ecodb::tpch::TpchDatabase tables;
  std::vector<std::vector<QueryKind>> shapes;
};

constexpr const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                     "HOUSEHOLD", "MACHINERY"};

std::vector<std::vector<QueryKind>> JoinShapes(
    const ecodb::tpch::TpchDatabase& t, bool answers) {
  const JoinTables raw{t.customer.storage.get(), t.orders.storage.get(),
                       t.lineitem.storage.get(), t.part.storage.get(),
                       t.supplier.storage.get(), t.partsupp.storage.get()};
  std::vector<std::vector<QueryKind>> shapes(4);
  for (int p = 0; p < kParams; ++p) {
    const std::string suffix = "/p" + std::to_string(p);
    const char* segment = kSegments[p % 5];
    const char* segment5 = kSegments[(p + 2) % 5];
    const int64_t cutoff = 900 + 60 * p;
    const int64_t max_size = 3 + p;
    const int64_t min_size = 36 + p;
    const int64_t lo = 600 + 150 * p;
    shapes[0].push_back(
        Kind("q3" + suffix,
             ecodb::tpch::MakeSegmentRevenueSpec(t, segment, cutoff), ""));
    shapes[1].push_back(Kind(
        "q9" + suffix, ecodb::tpch::MakePartSupplierProfitSpec(t, max_size),
        ""));
    shapes[2].push_back(Kind(
        "q5" + suffix,
        ecodb::tpch::MakeLocalSupplierVolumeSpec(t, segment5, min_size), ""));
    shapes[3].push_back(
        Kind("q14" + suffix,
             ecodb::tpch::MakePromoRevenueSpec(t, lo, lo + 60, kTopBrands),
             "revenue"));
    if (answers) {
      shapes[0].back().expected = RefSegmentRevenue(raw, segment, cutoff);
      shapes[1].back().expected = RefPartSupplierProfit(raw, max_size);
      shapes[2].back().expected =
          RefLocalSupplierVolume(raw, segment5, min_size);
      shapes[3].back().expected = RefPromoRevenue(raw, lo, lo + 60, kTopBrands);
    }
  }
  return shapes;
}

StatusOr<std::unique_ptr<JoinSetup>> SetupJoin(
    const Options& options, bool answers,
    std::map<std::string, double>* timing) {
  auto setup = std::make_unique<JoinSetup>();
  ecodb::tpch::TpchConfig tc;
  tc.scale_factor = kJoinScaleFactor;
  tc.seed = DataSeed(options.seed);
  const double start = NowUs();
  ECODB_ASSIGN_OR_RETURN(setup->db, EcoDb::Open(EngineConfig()));
  ECODB_ASSIGN_OR_RETURN(
      setup->tables,
      ecodb::tpch::LoadDatabase(tc, ecodb::storage::TableLayout::kColumn,
                                setup->db->primary_device(),
                                setup->db->catalog()));
  const double setup_s = (NowUs() - start) / 1e6;
  (*timing)["setup_s"] = setup_s;
  if (options.trace) {
    // LoadDatabase generates and loads in one call; generation alone is
    // timed on a standalone pass and the rest is attributed to loading.
    const double gen_start = NowUs();
    const size_t sink = ecodb::tpch::GenerateOrders(tc).size() +
                        ecodb::tpch::GenerateLineitem(tc).size() +
                        ecodb::tpch::GenerateCustomer(tc).size() +
                        ecodb::tpch::GeneratePart(tc).size() +
                        ecodb::tpch::GenerateSupplier(tc).size() +
                        ecodb::tpch::GeneratePartsupp(tc).size();
    const double generate_s = (NowUs() - gen_start) / 1e6;
    (*timing)["tpch.generate_s"] = sink > 0 ? generate_s : 0.0;
    (*timing)["storage.load_s"] = std::max(0.0, setup_s - generate_s);
  }
  setup->shapes = JoinShapes(setup->tables, answers);
  return setup;
}

// --- scan_mix ---------------------------------------------------------------

struct ScanSetup {
  std::unique_ptr<EcoDb> db;
  std::vector<std::vector<QueryKind>> shapes;
  /// Operator-prefix specs for self times: (name, shorter spec, full spec).
  struct Prefix {
    const char* layer;
    QuerySpec without;
    QuerySpec with;
  };
  std::vector<Prefix> prefixes;
};

/// LINEITEM with both physical variants, the l_shipdate B-tree and the
/// catalog statistics, the way a real caller passes them.
ecodb::optimizer::TableAlternatives Lineitem(
    std::vector<const ecodb::storage::TableStorage*> variants,
    const ecodb::storage::BTreeIndex* index,
    const ecodb::catalog::TableStats* stats) {
  ecodb::optimizer::TableAlternatives t;
  t.name = "lineitem";
  t.variants = std::move(variants);
  t.index = index;
  t.index_column = "l_shipdate";
  t.stats = stats;
  return t;
}

QuerySpec PricingSummary(const ecodb::optimizer::TableAlternatives& base,
                         int64_t cutoff, bool aggregate) {
  QuerySpec spec;
  spec.left = base;
  spec.left.columns = {"l_returnflag", "l_quantity", "l_extendedprice",
                       "l_discount", "l_shipdate"};
  spec.left.filter = Col("l_shipdate") <= LitDate(cutoff);
  if (aggregate) {
    spec.group_by = {"l_returnflag"};
    spec.aggregates = {
        {"sum_qty", AggFunc::kSum, Col("l_quantity")},
        {"sum_base_price", AggFunc::kSum, Col("l_extendedprice")},
        {"sum_disc_price", AggFunc::kSum,
         Col("l_extendedprice") * (Lit(1.0) - Col("l_discount"))},
        {"avg_qty", AggFunc::kAvg, Col("l_quantity")},
        {"count_order", AggFunc::kCount, nullptr},
    };
  }
  return spec;
}

int64_t RevenueYear(int p) { return 365 * (p % 5); }
double RevenueQuantityCap(int p) { return 24.0 + p; }

QuerySpec Revenue(const ecodb::optimizer::TableAlternatives& base, int p) {
  const int64_t lo = RevenueYear(p);
  QuerySpec spec;
  spec.left = base;
  spec.left.columns = {"l_quantity", "l_extendedprice", "l_discount",
                       "l_shipdate"};
  spec.left.filter =
      And(And(Col("l_shipdate") >= LitDate(lo),
              Col("l_shipdate") < LitDate(lo + 365)),
          And(And(Col("l_discount") >= Lit(kDiscountLo),
                  Col("l_discount") <= Lit(kDiscountHi)),
              Col("l_quantity") < Lit(RevenueQuantityCap(p))));
  spec.aggregates = {{"revenue", AggFunc::kSum,
                      Col("l_extendedprice") * Col("l_discount")}};
  return spec;
}

/// Ship-date window [lo, lo + days), optionally ordered by price
/// (descending) and limited.
QuerySpec Window(const ecodb::optimizer::TableAlternatives& base, int64_t lo,
                 int64_t days, bool ordered, std::optional<uint64_t> limit,
                 ecodb::storage::StorageDevice* spill) {
  QuerySpec spec;
  spec.left = base;
  spec.left.columns = {"l_orderkey", "l_extendedprice", "l_shipdate"};
  spec.left.filter = And(Col("l_shipdate") >= LitDate(lo),
                         Col("l_shipdate") < LitDate(lo + days));
  if (ordered) {
    spec.order_by = {{"l_extendedprice", /*ascending=*/false}};
    spec.limit = limit;
    if (!limit) {
      spec.sort_memory_budget_bytes = kSortBudgetBytes;
      spec.sort_spill_device = spill;
    }
  }
  return spec;
}

StatusOr<std::unique_ptr<ScanSetup>> SetupScan(
    const Options& options, bool answers,
    std::map<std::string, double>* timing) {
  using ecodb::storage::CompressionKind;
  auto setup = std::make_unique<ScanSetup>();
  ecodb::tpch::TpchConfig tc;
  tc.scale_factor = kScanScaleFactor;
  tc.seed = DataSeed(options.seed);

  double t = NowUs();
  const double start = t;
  auto lap = [&t](const char* name, std::map<std::string, double>* out) {
    const double now = NowUs();
    (*out)[name] = (now - t) / 1e6;
    t = now;
  };
  ECODB_ASSIGN_OR_RETURN(setup->db, EcoDb::Open(EngineConfig()));
  EcoDb* db = setup->db.get();
  std::vector<ecodb::storage::ColumnData> columns =
      ecodb::tpch::GenerateLineitem(tc);
  lap("tpch.generate_s", timing);
  ECODB_RETURN_IF_ERROR(
      db->CreateTable("lineitem", ecodb::tpch::LineitemSchema()));
  ECODB_RETURN_IF_ERROR(db->Load("lineitem", columns));
  lap("storage.load_s", timing);
  ECODB_RETURN_IF_ERROR(db->CloneWithCompression(
      "lineitem", "lineitem_packed",
      {{"l_orderkey", CompressionKind::kDelta},
       {"l_partkey", CompressionKind::kBitpack},
       {"l_suppkey", CompressionKind::kBitpack},
       {"l_shipdate", CompressionKind::kFor},
       {"l_returnflag", CompressionKind::kDictionary}}));
  lap("storage.clone_compress_s", timing);
  ECODB_RETURN_IF_ERROR(db->BuildZoneMaps("lineitem", 4096));
  ECODB_RETURN_IF_ERROR(db->BuildZoneMaps("lineitem_packed", 4096));
  ECODB_ASSIGN_OR_RETURN(ecodb::storage::BTreeIndex * index,
                         db->CreateIndex("lineitem", "l_shipdate"));
  lap("storage.index_s", timing);
  (*timing)["setup_s"] = (t - start) / 1e6;

  ECODB_ASSIGN_OR_RETURN(ecodb::storage::TableStorage * plain,
                         db->table("lineitem"));
  ECODB_ASSIGN_OR_RETURN(ecodb::storage::TableStorage * packed,
                         db->table("lineitem_packed"));
  ECODB_ASSIGN_OR_RETURN(const ecodb::catalog::TableEntry* entry,
                         db->catalog()->GetTable("lineitem"));
  const ecodb::optimizer::TableAlternatives base =
      Lineitem({plain, packed}, index, &entry->stats);
  ecodb::storage::StorageDevice* spill = db->primary_device();

  setup->shapes.resize(4);
  for (int p = 0; p < kParams; ++p) {
    const std::string suffix = "/p" + std::to_string(p);
    const int64_t cutoff = ecodb::tpch::kDateRangeDays - 90 - 30 * p;
    const int64_t topk_lo = 200 + 290 * p;
    const int64_t sort_lo = 100 + 280 * p;
    setup->shapes[0].push_back(
        Kind("q1" + suffix, PricingSummary(base, cutoff, true), ""));
    setup->shapes[1].push_back(Kind("q6" + suffix, Revenue(base, p), ""));
    setup->shapes[2].push_back(
        Kind("topk" + suffix,
             Window(base, topk_lo, kTopkDays, true, kTopkRows, spill),
             "l_extendedprice"));
    // Ties at the limit may keep either row: check the prices only.
    setup->shapes[2].back().columns = {"l_extendedprice"};
    setup->shapes[3].push_back(Kind(
        "sort" + suffix,
        Window(base, sort_lo, kSortDays, true, std::nullopt, spill),
        "l_extendedprice"));
    if (answers) {
      setup->shapes[0].back().expected = RefPricingSummary(plain, cutoff);
      const int64_t year = RevenueYear(p);
      setup->shapes[1].back().expected =
          RefRevenue(plain, year, year + 365, kDiscountLo, kDiscountHi,
                     RevenueQuantityCap(p));
      setup->shapes[2].back().expected =
          RefShipWindow(plain, topk_lo, topk_lo + kTopkDays, kTopkRows);
      setup->shapes[3].back().expected =
          RefShipWindow(plain, sort_lo, sort_lo + kSortDays, std::nullopt);
    }
  }
  const int64_t q1_cutoff = ecodb::tpch::kDateRangeDays - 90;
  QuerySpec scan_only = PricingSummary(base, q1_cutoff, false);
  scan_only.left.filter = nullptr;
  setup->prefixes = {
      {"exec.filter_ms", scan_only, PricingSummary(base, q1_cutoff, false)},
      {"exec.aggregate_ms", PricingSummary(base, q1_cutoff, false),
       PricingSummary(base, q1_cutoff, true)},
      {"exec.sort_ms", Window(base, 100, kSortDays, false, std::nullopt, spill),
       Window(base, 100, kSortDays, true, std::nullopt, spill)},
      {"exec.topk_ms", Window(base, 200, kTopkDays, false, std::nullopt, spill),
       Window(base, 200, kTopkDays, true, kTopkRows, spill)},
  };
  return setup;
}

// --- the closed loop --------------------------------------------------------

/// Per-layer accumulators of the traced run.
struct LayerTotals {
  std::vector<double> plan_us, build_us, run_ms, read_ms, total_ms;
  std::vector<double> joules_qerror, rows_qerror;
  double instructions = 0, io_bytes = 0;
  double cpu_j = 0, dram_j = 0, io_j = 0, background_j = 0;
  double compressed = 0, index = 0, topk = 0, dop = 0;
  double n = 0;
};

void Accumulate(const Executed& ex, const QuerySpec& spec, double factor,
                double read_us, LayerTotals* lt) {
  lt->plan_us.push_back(ex.plan_us * factor);
  lt->build_us.push_back(ex.build_us * factor);
  lt->run_ms.push_back(ex.run_us * factor / 1000.0);
  lt->read_ms.push_back(read_us * factor / 1000.0);
  lt->total_ms.push_back(ex.total_us * factor / 1000.0);
  lt->joules_qerror.push_back(QError(ex.plan.cost.joules, ex.stats.Joules()));
  lt->rows_qerror.push_back(QError(ex.plan.output_rows,
                                   static_cast<double>(ex.rows.TotalRows())));
  lt->instructions += ex.stats.cpu_instructions;
  lt->io_bytes += static_cast<double>(ex.stats.io_bytes);
  lt->cpu_j += ex.stats.cpu_active_joules;
  lt->dram_j += ex.stats.dram_joules;
  lt->io_j += ex.stats.io_active_joules + ex.stats.faults.reconstruct_joules;
  lt->background_j += ex.stats.Joules() - ex.stats.DirectJoules();
  if (spec.relations.empty()) {
    lt->compressed += ex.plan.left_variant != 0 ? 1 : 0;
    lt->index +=
        ex.plan.left_path == ecodb::optimizer::AccessPath::kIndexScan ? 1 : 0;
  }
  lt->topk += ex.plan.use_topk ? 1 : 0;
  lt->dop += ex.plan.dop;
  lt->n += 1;
}

void ReportLayers(const LayerTotals& lt, RunResult* result) {
  auto& m = result->metrics;
  const double n = std::max(1.0, lt.n);
  m["optimizer.plan_us"] = Median(lt.plan_us);
  m["optimizer.build_us"] = Median(lt.build_us);
  m["optimizer.joules_qerror"] = Median(lt.joules_qerror);
  m["optimizer.rows_qerror"] = Median(lt.rows_qerror);
  m["optimizer.compressed_pick_rate"] = lt.compressed / n;
  m["optimizer.index_pick_rate"] = lt.index / n;
  m["optimizer.topk_pick_rate"] = lt.topk / n;
  m["optimizer.dop_mean"] = lt.dop / n;
  m["exec.run_ms"] = Median(lt.run_ms);
  m["exec.instructions"] = lt.instructions / n;
  m["storage.read_column_ms"] = Median(lt.read_ms);
  m["storage.io_bytes"] = lt.io_bytes / n;
  m["power.cpu_j"] = lt.cpu_j / n;
  m["power.dram_j"] = lt.dram_j / n;
  m["power.io_j"] = lt.io_j / n;
  m["power.background_j"] = lt.background_j / n;
}

/// Self time of each operator prefix: median corrected host time of the
/// full spec minus that of the spec without the operator, interleaved.
Status MeasurePrefixes(EcoDb* db, const std::vector<ScanSetup::Prefix>& list,
                       SpeedCorrector* corrector, RunResult* result) {
  for (const ScanSetup::Prefix& prefix : list) {
    std::vector<double> without_ms, with_ms;
    for (int rep = 0; rep < kPrefixReps; ++rep) {
      for (const QuerySpec* spec : {&prefix.without, &prefix.with}) {
        const double factor = corrector->Sample();
        const double start = NowUs();
        ECODB_ASSIGN_OR_RETURN(ecodb::core::QueryOutcome outcome,
                               db->Execute(*spec, Objective::Balanced(
                                                      kScanLambda)));
        const double ms = (NowUs() - start) / 1000.0 * factor;
        (spec == &prefix.without ? without_ms : with_ms).push_back(ms);
      }
    }
    result->metrics[prefix.layer] = Median(with_ms) - Median(without_ms);
  }
  return Status::OK();
}

/// Two identically set-up databases, each with query specs over its own
/// tables: [0] runs the loop, [1] the traced run's reconciliation.
struct LoopInputs {
  std::vector<EcoDb*> dbs;
  std::vector<const std::vector<std::vector<QueryKind>>*> shapes;
  DbConfig config;
  std::vector<Objective> objectives;
};

StatusOr<RunResult> RunClosedLoop(const Options& options,
                                  const LoopInputs& in,
                                  SpeedCorrector* corrector,
                                  SetupTimer* setups, RunResult result) {
  Tracer tracer(options.trace);
  Sequence sequence(*in.shapes[0], in.objectives, options.seed);
  EcoDb* db = in.dbs[0];

  std::vector<HostSample> host;
  std::vector<double> modeled_ms;
  std::vector<double> joules;  // per modeled-prefix query, in order
  double modeled_joules = 0.0;
  uint64_t modeled_completed = 0;
  LayerTotals layers;
  std::string first_error;
  uint64_t mismatches = 0;
  // Reconciliation of the traced run: the same queries through the untraced
  // facade call on the twin database, interleaved with the traced ones so
  // both see the same warm-up, must bill bit-equal Joules; their host time
  // is the baseline for the tracing overhead.
  Sequence twin_sequence(*in.shapes[1], in.objectives, options.seed);
  std::vector<double> traced_ms, untraced_ms, twin_joules;
  auto reconcile = [&](size_t q) -> Status {
    const double factor = corrector->Sample();
    ECODB_ASSIGN_OR_RETURN(Executed twin,
                           ExecutePlain(in.dbs[1], twin_sequence.At(q)));
    untraced_ms.push_back(twin.total_us / 1000.0 * factor);
    twin_joules.push_back(twin.stats.Joules());
    return Status::OK();
  };

  const double start = NowUs();
  size_t i = 0;
  for (; i < kModeledQueries || NowUs() - start < options.seconds * 1e6;
       ++i) {
    if (NowUs() - start > kLoopCapSeconds * 1e6) break;
    ECODB_RETURN_IF_ERROR(setups->Tick());
    const Slot slot = sequence.At(i);
    const bool reconciled = options.trace && i < kReconcileQueries;
    if (reconciled && i % 2 == 1) ECODB_RETURN_IF_ERROR(reconcile(i));
    const double factor = corrector->Sample();
    StatusOr<Executed> ex =
        options.trace ? ExecuteTraced(db, in.config, slot, &tracer,
                                      static_cast<int64_t>(i))
                      : ExecutePlain(db, slot);
    ++result.attempted;
    if (!ex.ok()) {
      ++result.failed;
      if (first_error.empty()) first_error = ex.status().ToString();
      if (i < kModeledQueries) modeled_ms.push_back(INFINITY);
      continue;
    }
    host.push_back({ex->total_us / 1000.0, factor});
    const ResultFingerprint fp =
        Fingerprint(ex->rows, slot.kind->columns, slot.kind->order_column,
                    slot.kind->descending);
    RunResult::Seen& seen =
        result.fingerprints[slot.kind->key][FingerprintKey(fp)];
    ++seen.count;
    if (!SameResult(fp, slot.kind->expected)) {
      seen.matches_reference = false;
      ++result.failed;
      ++mismatches;
    }
    if (i < kModeledQueries) {
      modeled_ms.push_back(ex->stats.elapsed_seconds * 1000.0);
      modeled_joules += ex->stats.Joules();
      joules.push_back(ex->stats.Joules());
      ++modeled_completed;
    }
    if (reconciled) {
      traced_ms.push_back(ex->total_us / 1000.0 * factor);
      if (i % 2 == 0) ECODB_RETURN_IF_ERROR(reconcile(i));
    }
    if (options.trace) {
      const double read_start = NowUs();
      const double read_us = TimeReadColumns(slot.kind->spec, ex->plan);
      tracer.Add("storage.read_column", -1, static_cast<int64_t>(i),
                 read_start, read_start + read_us);
      Accumulate(*ex, slot.kind->spec, factor, read_us, &layers);
    }
  }
  result.checks["modeled_prefix_complete"] = i >= kModeledQueries;
  result.details["oracle_mismatches"] = static_cast<double>(mismatches);
  if (!first_error.empty()) result.details["first_error: " + first_error] = 1;

  ReportHost(host, *corrector, &result);
  result.metrics["modeled_ms_p50"] = Percentile(modeled_ms, 0.50);
  result.metrics["modeled_ms_p99"] = Percentile(modeled_ms, 0.99);
  result.metrics["joules_per_query"] =
      modeled_completed ? modeled_joules / modeled_completed : 0.0;
  result.metrics["slo_capacity_qps"] = SloCapacity(modeled_ms, options.seed);
  result.details["modeled_samples"] = static_cast<double>(modeled_ms.size());

  if (options.trace) {
    ReportLayers(layers, &result);
    bool joules_equal = !twin_joules.empty();
    for (size_t q = 0; q < twin_joules.size(); ++q) {
      joules_equal = joules_equal && q < joules.size() &&
                     twin_joules[q] == joules[q];
    }
    result.checks["trace_joules_bit_equal"] = joules_equal;
    const double overhead_ms = Median(traced_ms) - Median(untraced_ms);
    result.metrics["trace.overhead_ms"] = overhead_ms;
    result.metrics["trace.untraced_ms_p50"] = Median(untraced_ms);
    result.metrics["trace.query_ms_p50"] = Median(traced_ms);
    result.checks["trace_overhead_small"] =
        std::abs(overhead_ms) <= kMaxTraceOverheadShare * Median(untraced_ms);
    // plan + build + run against the whole traced query span.
    double parts = 0.0;
    for (size_t q = 0; q < layers.total_ms.size(); ++q) {
      parts += layers.plan_us[q] / 1000.0 + layers.build_us[q] / 1000.0 +
               layers.run_ms[q];
    }
    double whole = 0.0;
    for (double ms : layers.total_ms) whole += ms;
    const double coverage = whole > 0 ? parts / whole : 0.0;
    result.metrics["trace.span_coverage"] = coverage;
    result.checks["trace_span_coverage"] = coverage >= kMinSpanCoverage;
    if (!options.spans_path.empty()) {
      ECODB_RETURN_IF_ERROR(tracer.WriteJsonl(
          options.spans_path,
          "{\"schema\":\"ecobench.spans.v1\",\"workload\":\"" +
              options.workload + "\",\"seed\":" +
              std::to_string(options.seed) + "}"));
    }
  }
  result.metrics["peak_rss_mb"] = PeakRssMb();
  return result;
}

/// Zero-valued layers a workload does not exercise (printed so every
/// workload reports the same per-layer names; the prediction is no change).
void ZeroLayers(std::initializer_list<const char*> names, RunResult* result) {
  for (const char* name : names) result->metrics[name] = 0.0;
}

constexpr std::initializer_list<const char*> kSchedLayers = {
    "sched.self_ms",        "sched.factory_us",   "sched.queue_ms_p99",
    "sched.share_rate",     "sched.batches_per_100", "sched.shed",
    "sched.evicted",        "sched.deadline_kills"};

}  // namespace

StatusOr<RunResult> RunJoinMix(const Options& options) {
  RunResult result;
  SpeedCorrector corrector;
  // Every set-up is timed; the first two databases serve the loop and the
  // traced run's twin, the later ones are only timed.
  std::vector<std::unique_ptr<JoinSetup>> setups;
  SetupTimer setup_timer(
      &corrector,
      [&](std::map<std::string, double>* timing) -> Status {
        ECODB_ASSIGN_OR_RETURN(auto setup,
                               SetupJoin(options, setups.empty(), timing));
        if (setups.size() < 2) setups.push_back(std::move(setup));
        return Status::OK();
      },
      kJoinSetupReps, options.seconds);
  ECODB_RETURN_IF_ERROR(setup_timer.Run());
  ECODB_RETURN_IF_ERROR(setup_timer.Run());
  if (options.corrupt_oracle) setups[0]->shapes[0][0].expected.cell_hash ^= 1;
  LoopInputs in;
  in.dbs = {setups[0]->db.get(), setups[1]->db.get()};
  in.shapes = {&setups[0]->shapes, &setups[1]->shapes};
  in.config = EngineConfig();
  in.objectives = {Objective::Performance(), Objective::Balanced(0.05)};
  ECODB_ASSIGN_OR_RETURN(result, RunClosedLoop(options, in, &corrector,
                                               &setup_timer, std::move(result)));
  ECODB_RETURN_IF_ERROR(setup_timer.Report(&result));
  if (options.trace) {
    ZeroLayers({"exec.filter_ms", "exec.aggregate_ms", "exec.sort_ms",
                "exec.topk_ms"},
               &result);
    ZeroLayers(kSchedLayers, &result);
  }
  return result;
}

StatusOr<RunResult> RunScanMix(const Options& options) {
  RunResult result;
  SpeedCorrector corrector;
  std::vector<std::unique_ptr<ScanSetup>> setups;
  SetupTimer setup_timer(
      &corrector,
      [&](std::map<std::string, double>* timing) -> Status {
        ECODB_ASSIGN_OR_RETURN(auto setup,
                               SetupScan(options, setups.empty(), timing));
        if (setups.size() < 2) setups.push_back(std::move(setup));
        return Status::OK();
      },
      kScanSetupReps, options.seconds);
  ECODB_RETURN_IF_ERROR(setup_timer.Run());
  ECODB_RETURN_IF_ERROR(setup_timer.Run());
  if (options.corrupt_oracle) setups[0]->shapes[0][0].expected.cell_hash ^= 1;
  LoopInputs in;
  in.dbs = {setups[0]->db.get(), setups[1]->db.get()};
  in.shapes = {&setups[0]->shapes, &setups[1]->shapes};
  in.config = EngineConfig();
  in.objectives = {Objective::Balanced(kScanLambda)};
  ECODB_ASSIGN_OR_RETURN(result, RunClosedLoop(options, in, &corrector,
                                               &setup_timer, std::move(result)));
  ECODB_RETURN_IF_ERROR(setup_timer.Report(&result));
  if (options.trace) {
    ECODB_RETURN_IF_ERROR(MeasurePrefixes(setups[1]->db.get(),
                                          setups[1]->prefixes, &corrector,
                                          &result));
    ZeroLayers(kSchedLayers, &result);
  }
  return result;
}

}  // namespace ecobench
