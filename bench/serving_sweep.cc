// Serving sweep: Joules per query across offered load, isolated vs
// consolidated serving.
//
// The paper's closing argument is that energy efficiency is a systems
// property, not a component property: a server that is 50% idle still burns
// most of its peak power, so the cheapest Joule is the one amortized across
// concurrent work. This harness replays one seeded multi-tenant arrival
// trace through the serving core at several offered loads, twice per load —
// once with every session isolated, once with admission batching and shared
// scans enabled — and reports each point's per-tenant energy bills. Emitted
// as `ecodb.serving.v1` JSON lines for plotting.
//
// Shape checks (exit code):
//   - conservation: at every point, the sum of session bills equals the
//     meter's integral over the serving window (DESIGN §12);
//   - consolidation saves energy: at the densest load, the consolidated
//     policy bills strictly fewer Joules than isolation and its shared-scan
//     rate is nonzero;
//   - idle amortization: Joules per query fall as concurrency rises, even
//     with no consolidation at all (the same queries split a smaller idle
//     bill);
//   - a second run of the densest consolidated point replays bit-exactly —
//     same admission fingerprint, same billed Joules (DESIGN §12).

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ecodb.h"
#include "sim/arrival_trace.h"
#include "tpch/generator.h"
#include "tpch/workload.h"

namespace ecodb {
namespace {

constexpr uint64_t kTraceSeed = 2009;
constexpr int kTenants = 4;
constexpr int kDisks = 4;  // RAID-5 primary store: scans cost real Joules
constexpr double kScaleFactor = 2.0;
constexpr double kBatchWindowS = 0.02;
constexpr double kShareWindowS = 1.0;

struct SweepParams {
  std::vector<double> interarrivals_s;  // densest load last
  size_t requests;
};

SweepParams ParamsFor(bool smoke) {
  if (smoke) return {{0.1, 0.01}, 8};
  return {{0.5, 0.1, 0.01}, 24};
}

// One fixed request mix, stretched or compressed in time per load point, so
// J/query comparisons across points see identical work.
sim::ArrivalTrace TraceFor(size_t requests, double mean_interarrival_s) {
  sim::ArrivalTraceSpec spec;
  spec.seed = kTraceSeed;
  spec.tenants = kTenants;
  spec.requests = requests;
  spec.mean_interarrival_s = 1.0;
  spec.tenant_skew_theta = 0.5;
  sim::ArrivalTrace trace = sim::GenerateArrivalTrace(spec);
  for (sim::TraceRequest& req : trace.requests) {
    req.arrival_s *= mean_interarrival_s;
  }
  return trace;
}

sched::ServingReport RunPoint(const sim::ArrivalTrace& trace,
                              bool consolidated) {
  core::DbConfig db_config;
  db_config.preset = core::PlatformPreset::kProportional;
  db_config.hdd_count = kDisks;  // 15K-class spinning store, as in Figure 1
  db_config.ssd_count = 0;
  db_config.hdd_spec.sustained_bw_bytes_per_s = 80.0 * 1e6;
  db_config.hdd_spec.active_watts = 17.0;
  db_config.hdd_spec.idle_watts = 12.0;
  auto db = core::EcoDb::Open(db_config).value();

  tpch::TpchConfig tc;
  tc.scale_factor = kScaleFactor;
  auto check = [](Status s) {
    if (!s.ok()) {
      std::fprintf(stderr, "serving_sweep: %s\n", s.message().c_str());
      std::abort();
    }
  };
  check(db->CreateTable("orders", tpch::OrdersSchema()));
  check(db->Load("orders", tpch::GenerateOrders(tc)));
  check(db->CreateTable("lineitem", tpch::LineitemSchema()));
  check(db->Load("lineitem", tpch::GenerateLineitem(tc)));
  storage::TableStorage* orders = db->table("orders").value();
  storage::TableStorage* lineitem = db->table("lineitem").value();

  sched::ServingConfig config;
  config.worker_fleet = 2;
  if (consolidated) {
    config.batching.window_s = kBatchWindowS;
    config.share_window_s = kShareWindowS;
  }
  return db->Serve(trace, config,
                   tpch::MakeServingFactory(orders, lineitem))
      .value();
}

bool Conserved(const sched::ServingReport& r) {
  return std::abs(r.billed_joules - r.total_joules) <=
         1e-9 * std::max(1.0, r.total_joules);
}

void PrintPointJson(double interarrival_s, const char* policy,
                    const sched::ServingReport& r) {
  bench::JsonLine()
      .Str("bench", "serving_sweep")
      .Num("mean_interarrival_s", "%.4f", interarrival_s).Str("policy", policy)
      .Num("sessions", "%zu", r.sessions.size())
      .Num("window_s", "%.6f", r.window_end_s - r.window_start_s)
      .Num("total_joules", "%.6f", r.total_joules)
      .Num("billed_joules", "%.6f", r.billed_joules)
      .Num("joules_per_query", "%.6f", r.JoulesPerQuery())
      .Num("share_rate", "%.4f", r.shared_scans.ShareRate())
      .Num("batches", "%zu", r.batches_dispatched)
      .Str("admission_fingerprint", "%016" PRIx64, r.admission_fingerprint)
      .Print();
}

void PrintTenantJson(double interarrival_s, const char* policy,
                     const sched::TenantBill& tb) {
  bench::JsonLine()
      .Str("bench", "serving_sweep")
      .Num("mean_interarrival_s", "%.4f", interarrival_s).Str("policy", policy)
      .Num("tenant", "%d", tb.tenant_id).Num("sessions", "%zu", tb.sessions)
      .Num("cpu_joules", "%.6f", tb.cpu_joules)
      .Num("dram_joules", "%.6f", tb.dram_joules)
      .Num("io_joules", "%.6f", tb.io_joules)
      .Num("fault_joules", "%.6f", tb.fault_joules)
      .Num("background_joules", "%.6f", tb.background_joules)
      .Num("total_joules", "%.6f", tb.TotalJoules())
      .Num("queue_seconds", "%.6f", tb.queue_seconds).Print();
}

int Main(bool smoke) {
  const SweepParams params = ParamsFor(smoke);
  bench::Banner(
      "Serving sweep: Joules per query vs offered load, per-tenant bills",
      "one seeded TPC-H arrival trace replayed per load point, isolated vs "
      "batched+shared serving on the energy-proportional preset");

  struct Point {
    double interarrival_s;
    sched::ServingReport isolated;
    sched::ServingReport consolidated;
  };
  std::vector<Point> points;
  for (double ia : params.interarrivals_s) {
    const sim::ArrivalTrace trace = TraceFor(params.requests, ia);
    Point p;
    p.interarrival_s = ia;
    p.isolated = RunPoint(trace, /*consolidated=*/false);
    p.consolidated = RunPoint(trace, /*consolidated=*/true);
    points.push_back(std::move(p));
  }

  bench::Table table({"interarrival (s)", "policy", "window (s)", "joules",
                      "J/query", "share rate", "batches"});
  for (const Point& p : points) {
    for (const auto& pr :
         {std::pair{&p.isolated, "isolated"},
          std::pair{&p.consolidated, "consolidated"}}) {
      const sched::ServingReport& r = *pr.first;
      table.AddRow({bench::Fmt("%.2f", p.interarrival_s), pr.second,
                    bench::Fmt("%.3f", r.window_end_s - r.window_start_s),
                    bench::Fmt("%.2f", r.billed_joules),
                    bench::Fmt("%.3f", r.JoulesPerQuery()),
                    bench::Fmt("%.2f", r.shared_scans.ShareRate()),
                    std::to_string(r.batches_dispatched)});
    }
  }
  table.Print();

  // JSON lines: header pins the schema and rig, one line per (load, policy)
  // point, one per tenant at the densest consolidated point.
  bench::JsonLine()
      .Str("schema", "ecodb.serving.v1").Str("bench", "serving_sweep")
      .Num("seed", "%" PRIu64, kTraceSeed).Num("tenants", "%d", kTenants)
      .Num("requests", "%zu", params.requests)
      .Num("scale_factor", "%.2f", kScaleFactor).Str("platform", "proportional")
      .Num("disks", "%d", kDisks).Str("raid", "raid5")
      .Num("batch_window_s", "%.3f", kBatchWindowS)
      .Num("share_window_s", "%.3f", kShareWindowS).Print();
  for (const Point& p : points) {
    PrintPointJson(p.interarrival_s, "isolated", p.isolated);
    PrintPointJson(p.interarrival_s, "consolidated", p.consolidated);
  }
  const Point& densest = points.back();
  for (const sched::TenantBill& tb : densest.consolidated.tenants) {
    PrintTenantJson(densest.interarrival_s, "consolidated", tb);
  }

  // --- Shape checks ------------------------------------------------------
  bench::ShapeCheck check(
      "bills conserve at every point; consolidation saves at dense load; "
      "J/query falls with concurrency; trace replays bit-exactly");
  bool conserved_all = true;
  for (const Point& p : points) {
    conserved_all = conserved_all && Conserved(p.isolated) &&
                    Conserved(p.consolidated);
  }
  check.Expect(conserved_all, "bills do not sum to the meter");
  check.Expect(
      densest.consolidated.billed_joules < densest.isolated.billed_joules &&
          densest.consolidated.shared_scans.ShareRate() > 0.0,
      "consolidated %.4f J vs isolated %.4f J (share rate %.3f)",
      densest.consolidated.billed_joules, densest.isolated.billed_joules,
      densest.consolidated.shared_scans.ShareRate());
  check.Expect(points.back().isolated.JoulesPerQuery() <
                   points.front().isolated.JoulesPerQuery(),
               "J/query dense %.4f vs sparse %.4f",
               points.back().isolated.JoulesPerQuery(),
               points.front().isolated.JoulesPerQuery());

  const sim::ArrivalTrace replay_trace =
      TraceFor(params.requests, densest.interarrival_s);
  const sched::ServingReport replay =
      RunPoint(replay_trace, /*consolidated=*/true);
  check.Expect(replay.admission_fingerprint ==
                       densest.consolidated.admission_fingerprint &&
                   replay.billed_joules == densest.consolidated.billed_joules &&
                   replay.total_joules == densest.consolidated.total_joules,
               "replay diverged");

  std::printf("\n");
  return check.Report();
}

}  // namespace
}  // namespace ecodb

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  return ecodb::Main(smoke);
}
