// Ablation A8 (Section 5.3, after [RRT+08]): uncoordinated power
// controllers work at cross purposes; a coordination handoff fixes it.
//
// "Consider a hardware controller that changes the voltage and frequency in
// parallel with the query optimizer which is making decisions based on
// current runtime power states. If these two do not communicate and
// coordinate their choices, they may end up working cross purposes."
//
// The workload alternates I/O-bound phases (CPU looks idle) with CPU
// bursts the optimizer costed at P0. Uncoordinated, the ondemand governor
// downshifts during every I/O phase, so each burst begins at the slowest
// state and crawls until the governor reacts. Coordinated, the database
// pins its costed P-state for the query's duration.

#include <vector>

#include "bench_util.h"
#include "power/cpu_power.h"
#include "power/governor.h"

namespace ecodb {
namespace {

constexpr double kSliceSeconds = 0.1;   // governor sampling interval
constexpr int kPhases = 20;             // I/O + CPU phase pairs
constexpr double kIoPhaseSeconds = 0.6;
constexpr double kBurstInstructions = 3.6e9;  // ~0.3 s at P0 on 4 cores
constexpr double kBackgroundWatts = 60.0;    // platform floor

power::CpuSpec BenchCpu() {
  power::CpuSpec spec;
  spec.sockets = 1;
  spec.cores_per_socket = 4;
  spec.pstates = {{"P0", 3.0, 15.0}, {"P1", 2.0, 9.0}, {"P2", 1.0, 4.0}};
  spec.socket_idle_watts = 8.0;
  return spec;
}

struct Outcome {
  double elapsed_s = 0;
  double joules = 0;
  int transitions = 0;
};

Outcome RunWorkload(bool coordinated) {
  const power::CpuPowerModel cpu(BenchCpu());
  power::DvfsGovernor governor(&cpu);

  double t = 0.0;
  double joules = 0.0;
  for (int phase = 0; phase < kPhases; ++phase) {
    // I/O-bound phase: CPU nearly idle; governor samples low utilization.
    for (double io = 0.0; io < kIoPhaseSeconds; io += kSliceSeconds) {
      governor.Observe(0.03);
      joules += (cpu.IdleWatts() + kBackgroundWatts) * kSliceSeconds;
      t += kSliceSeconds;
    }
    // The optimizer costed the burst at P0; with coordination it pins.
    if (coordinated) governor.Pin(0);
    double remaining = kBurstInstructions;
    while (remaining > 0) {
      const int p = governor.pstate();
      const double ips = cpu.spec().pstates[p].frequency_ghz * 1e9 *
                         cpu.spec().instructions_per_cycle *
                         cpu.total_cores();
      const double done = std::min(remaining, ips * kSliceSeconds);
      const double slice = done / ips;
      joules += (cpu.PeakWatts(p) + kBackgroundWatts) * slice;
      t += slice;
      remaining -= done;
      governor.Observe(1.0);  // burst saturates the CPU
    }
    if (coordinated) governor.Unpin();
  }
  return Outcome{t, joules, governor.transitions()};
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A8: database/governor coordination ([RRT+08] cross purposes)",
      "20 alternating I/O (0.6 s) + CPU-burst phases; ondemand governor vs "
      "database-pinned P-state");

  const Outcome uncoordinated = RunWorkload(false);
  const Outcome coordinated = RunWorkload(true);

  bench::Table table({"policy", "elapsed (s)", "energy (kJ)",
                      "p-state transitions", "J per phase"});
  table.AddRow({"uncoordinated (ondemand)",
                bench::Fmt("%.1f", uncoordinated.elapsed_s),
                bench::Fmt("%.2f", uncoordinated.joules / 1e3),
                bench::Fmt("%.0f", uncoordinated.transitions),
                bench::Fmt("%.1f", uncoordinated.joules / kPhases)});
  table.AddRow({"coordinated (DB pins P0)",
                bench::Fmt("%.1f", coordinated.elapsed_s),
                bench::Fmt("%.2f", coordinated.joules / 1e3),
                bench::Fmt("%.0f", coordinated.transitions),
                bench::Fmt("%.1f", coordinated.joules / kPhases)});
  table.Print();

  const double slowdown =
      uncoordinated.elapsed_s / coordinated.elapsed_s - 1.0;
  const double energy_delta =
      uncoordinated.joules / coordinated.joules - 1.0;
  std::printf("uncoordinated control runs %.1f%% longer and uses %+.1f%% "
              "energy, with %dx the state transitions\n",
              slowdown * 100.0, energy_delta * 100.0,
              coordinated.transitions
                  ? uncoordinated.transitions / coordinated.transitions
                  : uncoordinated.transitions);
  bench::ShapeCheck check(
      "coordination is faster AND no worse on energy");
  check.Expect(uncoordinated.elapsed_s > coordinated.elapsed_s * 1.05,
               "coordination is not 5% faster");
  check.Expect(uncoordinated.joules > coordinated.joules,
               "coordination costs more energy");
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
