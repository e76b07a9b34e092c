// Ablation A9 (Section 5.3): designing for total cost of ownership —
// overdrive one box vs parallelize at the efficient point.
//
// "Two potential solutions for increased performance are to either waste
// energy and increase performance with diminishing returns or pay for more
// hardware ... and parallelize, keeping the same energy efficiency. Over
// time, we expect that the latter solution will prevail since the energy
// costs will make up a larger fraction of TCO."
//
// The harness prices both options for a fixed throughput target across a
// sweep of electricity prices and reports the crossover.

#include "advisor/tco.h"
#include "bench_util.h"

namespace ecodb {
namespace {

// Operating points derived from the Figure-1 curve shape: the overdriven
// box delivers 2x the throughput of the efficient point at 5x the power.
advisor::NodeConfig OverdrivenNode() {
  advisor::NodeConfig n;
  n.name = "overdriven";
  n.hardware_cost_usd = 30000.0;
  n.avg_watts = 3000.0;
  n.perf_units = 100.0;
  return n;
}

advisor::NodeConfig EfficientNode() {
  advisor::NodeConfig n;
  n.name = "efficient";
  n.hardware_cost_usd = 20000.0;
  n.avg_watts = 600.0;
  n.perf_units = 50.0;
  return n;
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A9: TCO — overdrive vs parallelize at the efficient point",
      "Throughput target 100 units over a 3-year horizon; cooling 0.5 W/W; "
      "sweep of the electricity price");

  const double target = 100.0;
  bench::Table table({"USD/kWh", "overdrive total", "parallelize total",
                      "winner"});
  bool cheap_prefers_overdrive = false;
  bool dear_prefers_parallel = false;
  const std::vector<double> prices = {0.02, 0.05, 0.08, 0.12,
                                      0.20, 0.35, 0.50};
  for (double price : prices) {
    advisor::TcoParams params;
    params.energy_price_usd_per_kwh = price;
    const advisor::ScalingDecision d = advisor::DecideScaling(
        target, OverdrivenNode(), EfficientNode(), params);
    table.AddRow({bench::Fmt("%.2f", price),
                  bench::Fmt("$%.0f", d.overdrive.total_usd),
                  bench::Fmt("$%.0f", d.parallelize.total_usd),
                  d.parallelize_wins ? "parallelize (2 nodes)"
                                     : "overdrive (1 node)"});
    if (price == prices.front() && !d.parallelize_wins) {
      cheap_prefers_overdrive = true;
    }
    if (price == prices.back() && d.parallelize_wins) {
      dear_prefers_parallel = true;
    }
  }
  table.Print();

  const double crossover = advisor::EnergyPriceCrossover(
      target, OverdrivenNode(), EfficientNode(), advisor::TcoParams{});
  std::printf("parallelize-at-the-efficient-point overtakes overdrive at "
              "%.3f USD/kWh\n", crossover);
  bench::ShapeCheck check(
      "energy price flips the design, crossover inside the sweep");
  check.Expect(cheap_prefers_overdrive, "cheap energy does not overdrive");
  check.Expect(dear_prefers_parallel, "dear energy does not parallelize");
  check.Expect(crossover > prices.front() && crossover < prices.back(),
               "crossover %.3f USD/kWh outside the sweep", crossover);
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
