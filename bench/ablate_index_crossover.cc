// Ablation A12 (Section 5.1): access-path selection under the energy lens —
// B+tree index scan vs full sequential scan as selectivity grows.
//
// "Current query processing algorithms are based on fundamental assumptions
// regarding ... the nature and number of accesses they make to both main
// memory and secondary storage. Optimizing for energy use will ... change
// the way the query optimizer estimates costs and chooses a query plan."
//
// On a spinning disk, random index I/O costs both time and seek energy; the
// harness sweeps range selectivity and locates the crossover where the
// sequential scan becomes the more energy-efficient access path.

#include <functional>
#include <memory>

#include "bench_util.h"
#include "exec/filter.h"
#include "exec/index_scan.h"
#include "exec/scan.h"
#include "power/energy_meter.h"
#include "power/platform.h"
#include "storage/btree.h"
#include "storage/hdd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;
using exec::Col;
using exec::Lit;

constexpr int kRows = 400000;

struct Outcome {
  double joules = 0;
  double seconds = 0;
  size_t rows = 0;
};

Outcome Measure(power::HardwarePlatform* platform,
                const std::function<exec::OperatorPtr()>& make_plan) {
  exec::OperatorPtr plan = make_plan();
  const bench::PlanRun run = bench::RunPlan(platform, plan.get());
  return Outcome{run.stats.Joules(), run.stats.elapsed_seconds,
                 run.result.TotalRows()};
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A12: index scan vs sequential scan energy crossover",
      "400k-row table on a 15K disk, B+tree on the key; range predicate "
      "selectivity sweep");

  auto platform = power::MakeProportionalPlatform();
  // Volumetric scaling: stand-in for a multi-GB table on an 80 MB/s drive;
  // the 9.6 MB table gets a proportionally slower device so the full scan
  // costs what it would at production scale. Seek times stay real, which
  // is exactly what makes random index I/O expensive.
  power::HddSpec hdd_spec;
  hdd_spec.sustained_bw_bytes_per_s = 2e6;
  storage::HddDevice hdd("hdd", hdd_spec, platform->meter());

  // Unclustered heap: key i lives at a random row position, so index
  // fetches hit scattered pages.
  Rng rng(13);
  std::vector<uint64_t> position_of_key(kRows);
  for (int i = 0; i < kRows; ++i) {
    position_of_key[i] = static_cast<uint64_t>(i);
  }
  rng.Shuffle(&position_of_key);
  std::vector<int64_t> key_at_row(kRows);
  for (int i = 0; i < kRows; ++i) {
    key_at_row[position_of_key[i]] = i;
  }

  Schema schema({Column{"id", DataType::kInt64, 8},
                 Column{"a", DataType::kInt64, 8},
                 Column{"b", DataType::kDouble, 8}});
  storage::TableStorage table(1, schema, storage::TableLayout::kRow, &hdd);
  std::vector<storage::ColumnData> cols(3);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kInt64;
  cols[2].type = DataType::kDouble;
  for (int r = 0; r < kRows; ++r) {
    cols[0].i64.push_back(key_at_row[r]);
    cols[1].i64.push_back(rng.Uniform(0, 1000));
    cols[2].f64.push_back(r * 0.1);
  }
  if (!table.Append(cols).ok()) return 1;

  storage::BTreeIndex index(128);
  for (int i = 0; i < kRows; ++i) {
    index.Insert(i, position_of_key[i]);
  }

  bench::Table out({"selectivity", "rows", "index J", "scan J", "winner"});
  bool low_sel_index_wins = false;
  bool high_sel_scan_wins = false;
  for (double sel : {0.0001, 0.001, 0.01, 0.05, 0.2, 0.5}) {
    const int64_t hi = static_cast<int64_t>(sel * kRows) - 1;
    const Outcome via_index = Measure(platform.get(), [&] {
      return std::make_unique<exec::IndexScanOp>(
          &table, &index, std::vector<std::string>{}, 0, hi);
    });
    const Outcome via_scan = Measure(platform.get(), [&] {
      return std::make_unique<exec::FilterOp>(
          std::make_unique<exec::TableScanOp>(&table),
          exec::Between(Col("id"), Lit(int64_t{0}), Lit(hi)));
    });
    if (via_index.rows != via_scan.rows) {
      std::printf("FAIL: access paths disagree on the result\n");
      return 1;
    }
    const bool index_wins = via_index.joules < via_scan.joules;
    out.AddRow({bench::Fmt("%.4f", sel),
                bench::Fmt("%.0f", static_cast<double>(via_index.rows)),
                bench::Fmt("%.2f", via_index.joules),
                bench::Fmt("%.2f", via_scan.joules),
                index_wins ? "index" : "scan"});
    if (sel <= 0.001 && index_wins) low_sel_index_wins = true;
    if (sel >= 0.2 && !index_wins) high_sel_scan_wins = true;
  }
  out.Print();

  bench::ShapeCheck check(
      "index wins at low selectivity, sequential scan wins at high");
  check.Expect(low_sel_index_wins, "index never wins at low selectivity");
  check.Expect(high_sel_scan_wins, "scan never wins at high selectivity");
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
