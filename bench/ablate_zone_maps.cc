// Ablation A11 (Section 5.1): zone-map scan skipping — I/O never performed
// is energy never spent.
//
// "Techniques that reduce disk bandwidth requirements ... will need to be
// re-evaluated for their ability to reduce overall energy use."
//
// The harness runs date-range scans of decreasing selectivity over a
// clustered date column, with and without zone-map pruning, and reports
// bytes moved and energy. A control predicate on an unclustered column
// shows the technique's limit: zone maps only help when data layout and
// predicate align.

#include <memory>

#include "bench_util.h"
#include "exec/filter.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;
using exec::LitDate;

constexpr int kRows = 500000;
constexpr int kRowsPerDay = 500;  // clustered: 1000 days

struct Outcome {
  double joules = 0;
  uint64_t bytes = 0;
  size_t rows = 0;
};

Outcome RunScan(power::HardwarePlatform* platform,
                const storage::TableStorage& table, exec::ExprPtr filter,
                bool prune) {
  exec::FilterOp plan(
      std::make_unique<exec::TableScanOp>(&table, std::vector<std::string>{},
                                          prune ? filter : nullptr),
      filter);
  const bench::PlanRun run = bench::RunPlan(platform, &plan);
  return Outcome{run.stats.Joules(), run.stats.io_bytes,
                 run.result.TotalRows()};
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A11: zone-map scan skipping vs predicate selectivity",
      "500k rows, date-clustered (500 rows/day over 1000 days), 1000-row "
      "zone blocks; SSD at 50 MB/s");

  auto platform = power::MakeProportionalPlatform();
  power::SsdSpec ssd_spec;
  ssd_spec.read_bw_bytes_per_s = 50e6;
  storage::SsdDevice ssd("ssd", ssd_spec, platform->meter());

  Schema schema({Column{"day", DataType::kDate, 8},
                 Column{"noise", DataType::kInt64, 8},
                 Column{"amount", DataType::kDouble, 8}});
  storage::TableStorage table(1, schema, storage::TableLayout::kColumn,
                              &ssd);
  std::vector<storage::ColumnData> cols(3);
  cols[0].type = DataType::kDate;
  cols[1].type = DataType::kInt64;
  cols[2].type = DataType::kDouble;
  Rng rng(11);
  for (int i = 0; i < kRows; ++i) {
    cols[0].i64.push_back(i / kRowsPerDay);
    cols[1].i64.push_back(rng.Uniform(0, kRows));
    cols[2].f64.push_back(i * 0.01);
  }
  if (!table.Append(cols).ok()) return 1;
  if (!table.BuildZoneMaps(1000).ok()) return 1;

  bench::Table out({"predicate", "selectivity", "bytes full", "bytes pruned",
                    "J full", "J pruned", "energy saved"});
  bool monotone = true;
  double prev_saving = 1.1;
  for (int days : {10, 50, 200, 500, 1000}) {
    exec::ExprPtr f = Col("day") < LitDate(days);
    const Outcome full = RunScan(platform.get(), table, f, false);
    const Outcome pruned = RunScan(platform.get(), table, f, true);
    if (pruned.rows != full.rows) {
      std::printf("FAIL: pruning changed the answer\n");
      return 1;
    }
    const double saving = 1.0 - pruned.joules / full.joules;
    out.AddRow({"day < " + std::to_string(days),
                bench::Fmt("%.2f", days / 1000.0),
                bench::Fmt("%.1f MB", full.bytes / 1e6),
                bench::Fmt("%.1f MB", pruned.bytes / 1e6),
                bench::Fmt("%.3f", full.joules),
                bench::Fmt("%.3f", pruned.joules),
                bench::Fmt("%.0f%%", saving * 100.0)});
    if (saving > prev_saving + 0.02) monotone = false;
    prev_saving = saving;
  }

  // Control: same selectivity on the unclustered column prunes nothing.
  exec::ExprPtr control = Col("noise") < Lit(int64_t{kRows / 100});
  const Outcome cfull = RunScan(platform.get(), table, control, false);
  const Outcome cpruned = RunScan(platform.get(), table, control, true);
  out.AddRow({"noise < 1% (unclustered)", "0.01",
              bench::Fmt("%.1f MB", cfull.bytes / 1e6),
              bench::Fmt("%.1f MB", cpruned.bytes / 1e6),
              bench::Fmt("%.3f", cfull.joules),
              bench::Fmt("%.3f", cpruned.joules), "~0%"});
  out.Print();

  bench::ShapeCheck check(
      "savings track clustering+selectivity; unclustered control saves "
      "nothing");
  check.Expect(monotone, "savings rose with selectivity");
  check.Expect(prev_saving < 0.05, "full-range predicate saved %.2f",
               prev_saving);
  check.Expect(cpruned.bytes >= cfull.bytes * 95 / 100,
               "unclustered control pruned bytes");
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
