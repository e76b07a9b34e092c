// Ablation A13 (Section 2.4, after [TWM+08]): cluster-level energy
// proportionality via consolidation.
//
// "Recent work has considered using virtual machine migration and turning
// off servers to effect energy-proportionality."
//
// The harness compares load-balancing (spread) against consolidate-and-
// sleep (pack) over a 16-node cluster of individually inelastic servers:
// the power-vs-utilization curve, proportionality metrics, and a diurnal
// trace replay with wake-transition counts.

#include <cmath>

#include "bench_util.h"
#include "sched/cluster.h"
#include "util/random.h"

namespace ecodb {
namespace {

sched::ClusterNodeSpec Node2008() {
  sched::ClusterNodeSpec spec;
  spec.idle_watts = 210.0;  // 70% of peak at idle
  spec.peak_watts = 300.0;
  spec.sleep_watts = 10.0;
  spec.capacity = 100.0;
  spec.wake_joules = 5000.0;
  return spec;
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A13: cluster consolidation ([TWM+08]) — proportionality "
      "from inelastic nodes",
      "16 nodes, each 210 W idle / 300 W peak (dynamic range 0.30); "
      "spread vs pack-and-sleep");

  sched::Cluster cluster(16, Node2008());

  // --- Power curve.
  bench::Table curve({"cluster load", "spread kW", "pack kW",
                      "active nodes (pack)"});
  for (double u : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const double load = u * cluster.TotalCapacity();
    curve.AddRow(
        {bench::Fmt("%.0f%%", u * 100.0),
         bench::Fmt("%.2f",
                    cluster.PowerAt(load, sched::DispatchPolicy::kSpread) /
                        1e3),
         bench::Fmt("%.2f",
                    cluster.PowerAt(load, sched::DispatchPolicy::kPack) / 1e3),
         bench::Fmt("%.0f", static_cast<double>(cluster.ActiveNodesFor(
                        load, sched::DispatchPolicy::kPack)))});
  }
  curve.Print();

  const auto spread_report = power::AnalyzeCurve(
      cluster.CurveFor(sched::DispatchPolicy::kSpread, 100));
  const auto pack_report =
      power::AnalyzeCurve(cluster.CurveFor(sched::DispatchPolicy::kPack, 100));
  std::printf("proportionality index: spread %.2f -> pack %.2f "
              "(node-level is %.2f)\n\n",
              spread_report.proportionality_index,
              pack_report.proportionality_index,
              power::AnalyzeCurve(power::PowerCurve::Sample(
                                      [](double u) {
                                        return 210.0 + 90.0 * u;
                                      },
                                      100))
                  .proportionality_index);

  // --- Diurnal trace: 24 h at one sample per minute, [BH07]-style load
  // that lives between 10% and 50% utilization.
  Rng rng(24);
  std::vector<double> loads;
  for (int minute = 0; minute < 24 * 60; ++minute) {
    const double phase = 2.0 * M_PI * minute / (24.0 * 60.0);
    const double diurnal = 0.30 + 0.20 * std::sin(phase - M_PI / 2);
    const double jitter = rng.Gaussian(0.0, 0.02);
    loads.push_back(std::max(0.0, (diurnal + jitter)) *
                    cluster.TotalCapacity());
  }
  const auto spread =
      cluster.SimulateTrace(loads, 60.0, sched::DispatchPolicy::kSpread);
  const auto pack =
      cluster.SimulateTrace(loads, 60.0, sched::DispatchPolicy::kPack);

  bench::Table trace({"policy", "energy (kWh)", "avg active nodes",
                      "wake transitions"});
  trace.AddRow({"spread", bench::Fmt("%.1f", spread.joules / 3.6e6),
                bench::Fmt("%.1f", spread.avg_active_nodes),
                bench::Fmt("%.0f", spread.wake_events)});
  trace.AddRow({"pack", bench::Fmt("%.1f", pack.joules / 3.6e6),
                bench::Fmt("%.1f", pack.avg_active_nodes),
                bench::Fmt("%.0f", pack.wake_events)});
  trace.Print();

  std::printf("consolidation saves %.0f%% of the day's energy at %d wake "
              "transitions\n",
              (1.0 - pack.joules / spread.joules) * 100.0, pack.wake_events);
  bench::ShapeCheck check(
      "packing approaches proportionality and saves energy at bounded churn");
  check.Expect(pack_report.proportionality_index >
                   spread_report.proportionality_index + 0.3,
               "packing gains < 0.3 proportionality index");
  check.Expect(pack.joules < spread.joules * 0.7,
               "packing saves < 30% of the energy");
  check.Expect(pack.wake_events < 200, "%d wake transitions",
               pack.wake_events);
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
