// Ablation A10 (Section 5.1): physical design — row vs column layout, with
// and without compression, under the energy lens.
//
// "Techniques that reduce disk bandwidth requirements, such as
// column-oriented storage and compression, will need to be re-evaluated
// for their ability to reduce overall energy use."
//
// The harness runs the same narrow projection (2 of 8 LINEITEM columns)
// against four physical designs of the same rows and reports time, energy,
// and bytes moved.

#include <memory>

#include "bench_util.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "tpch/generator.h"

namespace ecodb {
namespace {

struct Outcome {
  double seconds = 0;
  double joules = 0;
  uint64_t bytes = 0;
};

Outcome RunScan(const storage::TableStorage& table,
                power::HardwarePlatform* platform) {
  exec::TableScanOp scan(&table, std::vector<std::string>{
                                     "l_extendedprice", "l_shipdate"});
  const exec::QueryStats stats = bench::RunPlan(platform, &scan).stats;
  return Outcome{stats.elapsed_seconds, stats.Joules(), stats.io_bytes};
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A10: physical layout vs scan energy",
      "SELECT l_extendedprice, l_shipdate FROM lineitem (2 of 8 columns); "
      "row vs column layout, plus compression");

  auto platform = power::MakeProportionalPlatform();
  power::SsdSpec ssd_spec;
  ssd_spec.read_bw_bytes_per_s = 50e6;
  storage::SsdDevice ssd("ssd", ssd_spec, platform->meter());

  tpch::TpchConfig config;
  config.scale_factor = 4.0;  // ~240k lineitems
  const auto rows = tpch::GenerateLineitem(config);

  auto make_table = [&](catalog::TableId id, storage::TableLayout layout) {
    auto t = std::make_unique<storage::TableStorage>(
        id, tpch::LineitemSchema(), layout, &ssd);
    if (!t->Append(rows).ok()) std::exit(1);
    return t;
  };
  auto row_table = make_table(1, storage::TableLayout::kRow);
  auto col_table = make_table(2, storage::TableLayout::kColumn);
  auto col_compressed = make_table(3, storage::TableLayout::kColumn);
  (void)col_compressed->SetCompression("l_shipdate",
                                       storage::CompressionKind::kFor);
  (void)col_compressed->SetCompression("l_orderkey",
                                       storage::CompressionKind::kDelta);
  (void)col_compressed->SetCompression("l_returnflag",
                                       storage::CompressionKind::kDictionary);

  bench::Table table({"physical design", "bytes read", "time (s)",
                      "energy (J)", "rel energy"});
  const Outcome row = RunScan(*row_table, platform.get());
  const Outcome col = RunScan(*col_table, platform.get());
  const Outcome cmp = RunScan(*col_compressed, platform.get());
  auto add = [&](const char* name, const Outcome& o) {
    table.AddRow({name, bench::Fmt("%.1f MB", o.bytes / 1e6),
                  bench::Fmt("%.3f", o.seconds), bench::Fmt("%.1f", o.joules),
                  bench::Fmt("%.2f", o.joules / row.joules)});
  };
  add("row store (NSM)", row);
  add("column store (DSM)", col);
  add("column store + compression", cmp);
  table.Print();

  std::printf("the column layout reads %.1fx fewer bytes and uses %.1fx "
              "less energy for this projection\n",
              static_cast<double>(row.bytes) / col.bytes,
              row.joules / col.joules);
  bench::ShapeCheck check(
      "DSM reads and spends less on narrow projections; compression shrinks "
      "it further");
  check.Expect(col.bytes < row.bytes / 2, "DSM reads over half the NSM bytes");
  check.Expect(col.joules < row.joules, "DSM spends more than NSM");
  check.Expect(cmp.bytes < col.bytes, "compression did not shrink DSM");
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
