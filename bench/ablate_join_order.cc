// Ablation A14: join ORDER vs the energy price of time — the N-way sequel
// to A1's algorithm flip.
//
// The planner enumerates every connected join order of each widened TPC-H
// shape (Q3/Q9/Q5/Q14) plus a synthetic big-mid-fat chain, prices each
// order with the two-term `seconds + lambda * joules` model at a fixed DRAM
// residency premium, and reports what each lambda selects: the chosen
// order, its estimated intermediate-result bytes, and its (lambda-free)
// seconds and Joules. Algorithms are pinned to hash joins so every motion
// in the table is a pure ORDER decision.
//
// Shape checks (exit code):
//   1. at least one shape changes join order between lambda = 0 and the
//      highest lambda in the sweep;
//   2. for every shape that flips, the high-lambda order costs fewer
//      Joules and at least as many seconds as the lambda = 0 order (the
//      flip buys energy with time, never the reverse);
//   3. re-planning both endpoints reproduces the same plans bit-exactly.
//
// JSON lines (schema ecodb.joinorder.v1): one header pinning the rig, then
// one line per (shape, lambda) point.

#include <cinttypes>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/catalog.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "tpch/generator.h"
#include "tpch/queries.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;

constexpr double kMemoryPremium = 1e6;
constexpr double kDramWattsPerGib = 0.65;

/// The guaranteed-flip rig from the planner's regression suite: a chain
/// big(40k) - mid(10k) - fat(2k, 400-byte blob, filtered to 500 rows).
/// Right-deep joins fewer rows (fast) but holds the WIDE mid-fat
/// intermediate resident; left-deep builds more rows against only narrow
/// tables. Lambda picks the winner.
struct ChainRig {
  std::unique_ptr<storage::TableStorage> big, mid, fat;

  explicit ChainRig(storage::StorageDevice* dev) {
    Schema big_schema({Column{"bk", DataType::kInt64, 8}});
    big = std::make_unique<storage::TableStorage>(
        101, big_schema, storage::TableLayout::kColumn, dev);
    std::vector<storage::ColumnData> bc(1);
    bc[0].type = DataType::kInt64;
    for (int i = 0; i < 40000; ++i) bc[0].i64.push_back(i % 10000 + 1);
    if (!big->Append(bc).ok()) std::exit(1);

    Schema mid_schema({Column{"tk", DataType::kInt64, 8},
                       Column{"fk", DataType::kInt64, 8}});
    mid = std::make_unique<storage::TableStorage>(
        102, mid_schema, storage::TableLayout::kColumn, dev);
    std::vector<storage::ColumnData> mc(2);
    mc[0].type = DataType::kInt64;
    mc[1].type = DataType::kInt64;
    for (int i = 0; i < 10000; ++i) {
      mc[0].i64.push_back(i + 1);
      mc[1].i64.push_back(i % 2000 + 1);
    }
    if (!mid->Append(mc).ok()) std::exit(1);

    Schema fat_schema({Column{"fk_f", DataType::kInt64, 8},
                       Column{"fp", DataType::kInt64, 8},
                       Column{"blob", DataType::kString, 400}});
    fat = std::make_unique<storage::TableStorage>(
        103, fat_schema, storage::TableLayout::kColumn, dev);
    std::vector<storage::ColumnData> fc(3);
    fc[0].type = DataType::kInt64;
    fc[1].type = DataType::kInt64;
    fc[2].type = DataType::kString;
    for (int i = 0; i < 2000; ++i) {
      fc[0].i64.push_back(i + 1);
      fc[1].i64.push_back(i);
      fc[2].str.push_back(std::string(400, 'x'));
    }
    if (!fat->Append(fc).ok()) std::exit(1);
  }

  optimizer::QuerySpec Spec() const {
    optimizer::QuerySpec spec;
    optimizer::TableAlternatives b, m, f;
    b.name = "big";
    b.variants = {big.get()};
    m.name = "mid";
    m.variants = {mid.get()};
    f.name = "fat";
    f.variants = {fat.get()};
    f.filter = Col("fp") < Lit(int64_t{500});
    spec.relations = {std::move(b), std::move(m), std::move(f)};
    spec.edges = {{0, 1, "bk", "tk"}, {1, 2, "fk", "fk_f"}};
    return spec;
  }
};

std::string OrderName(const optimizer::QuerySpec& spec,
                      const optimizer::PhysicalPlan& plan) {
  std::string out;
  for (int leaf : plan.LeafOrder()) {
    if (!out.empty()) out += ">";
    out += spec.relations[leaf].name;
  }
  return out;
}

struct Point {
  double lambda;
  std::string order;
  double intermediate_bytes;
  double seconds;
  double joules;
};

}  // namespace

int Main(bool smoke) {
  bench::Banner(
      "Ablation A14: join order vs lambda (seconds + lambda * Joules)",
      "widened TPC-H shapes + a big-mid-fat chain; hash joins only; DP over "
      "all connected orders; fixed DRAM residency premium");

  const std::vector<double> lambdas =
      smoke ? std::vector<double>{0.0, 10.0}
            : std::vector<double>{0.0, 0.01, 0.1, 1.0, 10.0, 100.0};

  auto platform = power::MakeFlashScanPlatform();
  storage::SsdDevice ssd("s0", power::SsdSpec{}, platform->meter());

  tpch::TpchConfig config;
  config.scale_factor = smoke ? 0.05 : 0.2;
  catalog::Catalog catalog;
  auto db = tpch::LoadDatabase(config, storage::TableLayout::kColumn, &ssd,
                               &catalog);
  if (!db.ok()) {
    std::printf("load failed: %s\n", std::string(db.status().message()).c_str());
    return 1;
  }
  ChainRig chain(&ssd);

  optimizer::CostModelParams params;
  params.memory_power_premium = kMemoryPremium;
  params.dram_watts_per_gib_override = kDramWattsPerGib;
  optimizer::CostModel model(platform.get(), params);
  optimizer::PlannerOptions options;
  options.enumerate_join_algorithms = false;  // isolate the ORDER decision
  optimizer::Planner planner(&model, options);

  struct ShapeRun {
    std::string name;
    optimizer::QuerySpec spec;
    std::vector<Point> points;
  };
  std::vector<ShapeRun> runs;
  for (tpch::JoinQueryShape& shape : tpch::MakeJoinQueryShapes(*db)) {
    runs.push_back({shape.name, std::move(shape.spec), {}});
  }
  runs.push_back({"chain_fat_blob", chain.Spec(), {}});

  for (ShapeRun& run : runs) {
    for (double lambda : lambdas) {
      auto plan =
          planner.ChoosePlan(run.spec, optimizer::Objective::Balanced(lambda));
      if (!plan.ok()) {
        std::printf("plan failed (%s, lambda=%g): %s\n", run.name.c_str(),
                    lambda, std::string(plan.status().message()).c_str());
        return 1;
      }
      run.points.push_back({lambda, OrderName(run.spec, *plan),
                            plan->est_intermediate_bytes, plan->cost.seconds,
                            plan->cost.joules});
    }
  }

  bench::Table table({"shape", "lambda", "chosen join order",
                      "intermediate (B)", "est (s)", "est (J)"});
  for (const ShapeRun& run : runs) {
    for (const Point& p : run.points) {
      table.AddRow({run.name, bench::Fmt("%g", p.lambda), p.order,
                    bench::Fmt("%.0f", p.intermediate_bytes),
                    bench::Fmt("%.4f", p.seconds),
                    bench::Fmt("%.3f", p.joules)});
    }
  }
  table.Print();

  bench::JsonLine()
      .Str("schema", "ecodb.joinorder.v1").Str("bench", "ablate_join_order")
      .Num("seed", "%" PRIu64, config.seed)
      .Num("scale_factor", "%.2f", config.scale_factor)
      .Num("memory_power_premium", "%.0e", kMemoryPremium)
      .Num("dram_watts_per_gib", "%.2f", kDramWattsPerGib)
      .Str("platform", "flash_scan").Str("algorithms", "hash_only").Print();
  for (const ShapeRun& run : runs) {
    for (const Point& p : run.points) {
      bench::JsonLine()
          .Str("schema", "ecodb.joinorder.v1").Str("shape", run.name)
          .Num("lambda", "%g", p.lambda).Str("order", p.order)
          .Num("intermediate_bytes", "%.0f", p.intermediate_bytes)
          .Num("est_seconds", "%.6f", p.seconds)
          .Num("est_joules", "%.4f", p.joules).Print();
    }
  }

  bench::ShapeCheck check(
      ">=1 order flip across the lambda sweep; flips buy Joules with "
      "seconds; replans are deterministic");
  // Shape check 1: some shape reorders as lambda grows.
  int flipped = 0;
  for (const ShapeRun& run : runs) {
    const Point& first = run.points.front();
    const Point& last = run.points.back();
    if (first.order == last.order) continue;
    ++flipped;
    // Shape check 2: the reorder trades seconds for Joules, not the
    // reverse (costs are lambda-free, so the two plans compare directly).
    check.Expect(last.joules < first.joules && last.seconds >= first.seconds,
                 "%s flipped but J %.3f -> %.3f, s %.4f -> %.4f",
                 run.name.c_str(), first.joules, last.joules, first.seconds,
                 last.seconds);
  }
  check.Expect(flipped > 0, "no shape changed join order");

  // Shape check 3: both endpoints replan bit-exactly.
  bool deterministic = true;
  for (const ShapeRun& run : runs) {
    for (double lambda : {lambdas.front(), lambdas.back()}) {
      auto a =
          planner.ChoosePlan(run.spec, optimizer::Objective::Balanced(lambda));
      auto b =
          planner.ChoosePlan(run.spec, optimizer::Objective::Balanced(lambda));
      if (!a.ok() || !b.ok() || a->Describe(run.spec) != b->Describe(run.spec))
        deterministic = false;
    }
  }

  check.Expect(deterministic, "replan diverged");

  std::printf("\n");
  return check.Report();
}

}  // namespace ecodb

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return ecodb::Main(smoke);
}
