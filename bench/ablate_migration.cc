// Ablation A4 (Section 4.2): consolidating data in space — migrating a
// partition off an under-used disk so the disk can power down — pays only
// when the idle horizon exceeds the migration break-even.
//
// "The energy savings from consolidation should exceed the energy overhead
// of such movements."
//
// The harness compares, over a sweep of idle horizons, the measured energy
// of (a) leaving a cold partition on its own spinning disk and (b) migrating
// it to a shared SSD and spinning the disk down, and checks that the
// Evaluate() decision matches the measured winner.

#include <memory>

#include "bench_util.h"
#include "power/energy_meter.h"
#include "sched/consolidation.h"
#include "sim/clock.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb {
namespace {

constexpr uint64_t kRows = 2000000;  // ~16 MB partition (volumetric)

// Volumetric scaling: the interesting cold partitions are terabyte-class
// (hours of streaming on a 15K drive). We shrink the partition to 16 MB and
// the drive bandwidth by the same factor, so the migration takes the same
// simulated ~100 s it would per ~8 GB of real data.
power::HddSpec ColdDiskSpec() {
  power::HddSpec spec;
  spec.sustained_bw_bytes_per_s = 160e3;
  return spec;
}

catalog::Schema PartitionSchema() {
  return catalog::Schema(
      {catalog::Column{"v", catalog::DataType::kInt64, 8}});
}

std::vector<storage::ColumnData> PartitionRows() {
  std::vector<storage::ColumnData> cols(1);
  cols[0].type = catalog::DataType::kInt64;
  cols[0].i64.reserve(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    cols[0].i64.push_back(static_cast<int64_t>(i * 7));
  }
  return cols;
}

double MeasureStay(double horizon) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  storage::HddDevice hdd("cold-disk", ColdDiskSpec(), &meter);
  clock.AdvanceTo(horizon);
  return meter.ChannelJoules(hdd.channel());
}

double MeasureMigrate(double horizon, const std::vector<storage::ColumnData>&
                                          rows) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  storage::HddDevice hdd("cold-disk", ColdDiskSpec(), &meter);
  storage::SsdDevice ssd("shared-ssd", power::SsdSpec{}, &meter);
  storage::TableStorage table(1, PartitionSchema(),
                              storage::TableLayout::kColumn, &hdd);
  if (!table.Append(rows).ok()) std::exit(1);
  (void)sched::ConsolidationManager::Migrate(&table, &ssd, &clock).value();
  clock.AdvanceTo(horizon);
  // Charge the source disk's energy (the device being consolidated away)
  // plus the *incremental* SSD energy of hosting the moved bytes — the SSD
  // is shared, so its idle floor is not attributable to this partition.
  return meter.ChannelJoules(hdd.channel()) +
         meter.ChannelBusySeconds(ssd.channel()) * power::SsdSpec{}.active_watts;
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A4: partition migration vs staying put",
      "16 MB cold partition on a dedicated 15K disk vs migrate-to-shared-SSD"
      " + spin down; sweep of the idle horizon");

  const auto rows = PartitionRows();
  sim::SimClock probe_clock;
  power::EnergyMeter probe_meter(&probe_clock);
  storage::HddDevice probe_hdd("p", ColdDiskSpec(), &probe_meter);
  storage::SsdDevice probe_ssd("q", power::SsdSpec{}, &probe_meter);
  const uint64_t bytes = kRows * 8;

  bench::Table table({"horizon (s)", "stay (kJ)", "migrate (kJ)",
                      "measured winner", "Evaluate() says"});
  bool decisions_match = true;
  bool short_stays = false, long_migrates = false;
  for (double horizon : {10.0, 60.0, 300.0, 1800.0, 7200.0, 86400.0}) {
    const double stay = MeasureStay(horizon);
    const double migrate = MeasureMigrate(horizon, rows);
    const auto decision = sched::ConsolidationManager::Evaluate(
        probe_hdd, probe_ssd, bytes, horizon);
    const bool migrate_wins = migrate < stay;
    table.AddRow({bench::Fmt("%.0f", horizon), bench::Fmt("%.2f", stay / 1e3),
                  bench::Fmt("%.2f", migrate / 1e3),
                  migrate_wins ? "migrate" : "stay",
                  decision.migrate ? "migrate" : "stay"});
    if (horizon <= 60.0 && !migrate_wins) short_stays = true;
    if (horizon >= 1800.0 && migrate_wins) long_migrates = true;
    // The analytic decision may be conservative near the break-even point
    // (~200 s here); require agreement away from it.
    if (horizon <= 60.0 || horizon >= 300.0) {
      decisions_match &= (decision.migrate == migrate_wins);
    }
  }
  table.Print();

  bench::ShapeCheck check(
      "short horizon stays, long horizon migrates, Evaluate agrees away from "
      "break-even");
  check.Expect(short_stays, "short horizon migrated");
  check.Expect(long_migrates, "long horizon stayed");
  check.Expect(decisions_match, "Evaluate disagrees away from break-even");
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
