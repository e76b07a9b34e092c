// Ablation A7 (Section 2.4, after [BH07]): energy-proportionality profiles.
//
// "Servers should use no power when not used and power only in proportion
// to delivered performance ... Such ideal energy-proportional systems would
// offer constant energy efficiency at all performance levels rather than
// the best energy efficiency only at peak performance."
//
// The harness profiles three platform classes — 2008-era inelastic,
// modern partially-proportional, and ideal — printing power and relative EE
// across the utilization range plus the summary proportionality metrics,
// and highlights the 10-50% utilization band where Barroso & Hoelzle found
// real servers spend their lives.

#include <functional>

#include "bench_util.h"
#include "power/cpu_power.h"
#include "power/proportionality.h"

namespace ecodb {
namespace {

struct Profile {
  const char* name;
  std::function<double(double)> power;
};

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A7: energy-proportionality profiles",
      "Power and relative energy efficiency vs utilization for three "
      "platform classes");

  // Inelastic 2008 server: ~70% of peak power at idle ([PN08]-style).
  // Partially proportional: linear CPU + fixed floor.
  // Ideal: power tracks utilization exactly.
  power::CpuSpec modern;
  modern.sockets = 2;
  modern.cores_per_socket = 8;
  modern.pstates = {{"P0", 2.6, 8.0}};
  modern.socket_idle_watts = 20.0;
  power::CpuPowerModel modern_cpu(modern);

  const std::vector<Profile> profiles = {
      {"inelastic-2008", [](double u) { return 300.0 * (0.70 + 0.30 * u); }},
      {"partial-modern",
       [&](double u) { return 40.0 + modern_cpu.WattsAtUtilization(u); }},
      {"ideal-proportional", [](double u) { return 250.0 * u + 1e-6; }},
  };

  bench::Table table({"platform", "idle W", "peak W", "dynamic range",
                      "proportionality idx", "rel EE @10%", "rel EE @30%",
                      "rel EE @50%"});
  std::vector<power::ProportionalityReport> reports;
  for (const Profile& p : profiles) {
    const power::PowerCurve curve = power::PowerCurve::Sample(p.power, 100);
    const power::ProportionalityReport r = power::AnalyzeCurve(curve);
    reports.push_back(r);
    table.AddRow({p.name, bench::Fmt("%.0f", r.idle_watts),
                  bench::Fmt("%.0f", r.peak_watts),
                  bench::Fmt("%.2f", r.dynamic_range),
                  bench::Fmt("%.2f", r.proportionality_index),
                  bench::Fmt("%.2f", r.relative_ee[10]),
                  bench::Fmt("%.2f", r.relative_ee[30]),
                  bench::Fmt("%.2f", r.relative_ee[50])});
  }
  table.Print();

  std::printf("at 30%% utilization the inelastic server delivers %.0f%% of "
              "its peak EE; the ideal one delivers %.0f%%\n",
              reports[0].relative_ee[30] * 100.0,
              reports[2].relative_ee[30] * 100.0);
  bench::ShapeCheck check("EE at partial load ranks by proportionality");
  check.Expect(reports[0].proportionality_index <
                       reports[1].proportionality_index &&
                   reports[1].proportionality_index <
                       reports[2].proportionality_index,
               "proportionality index does not rank the curves");
  check.Expect(reports[0].relative_ee[30] < 0.6,
               "least proportional curve keeps %.2f of peak EE at 30%%",
               reports[0].relative_ee[30]);
  check.Expect(reports[2].relative_ee[30] > 0.95,
               "ideal curve keeps %.2f of peak EE at 30%%",
               reports[2].relative_ee[30]);
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
