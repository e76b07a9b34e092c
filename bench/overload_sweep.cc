// Overload sweep: goodput, sheds, deadline kills, and the power-cap ladder
// across offered load — every shed Joule still on the bill.
//
// Section 4 of the paper bills the server, not the query; this harness asks
// what the bill looks like when the server is offered more work than it can
// carry. One seeded burst-shaped arrival trace is replayed at several load
// factors (0.5x to 4x of measured capacity), with the power cap off and on.
// Overload protection — deadlines, admission backpressure, priority-aware
// shedding, power-cap degradation — turns excess load into cheap refusals
// instead of expensive late answers, and the accounting keeps refusals on
// the books: a shed session still carries its background share, a killed one
// its partial work. Emitted as `ecodb.overload.v1` JSON lines for plotting.
//
// Shape checks (exit code):
//   - conservation: at every (load, cap) point, the sum of session bills —
//     completed, killed, shed, and evicted alike — equals the meter's
//     integral over the serving window (DESIGN §12, §14);
//   - goodput degrades monotonically: the completed-session count never
//     rises as offered load rises, with or without the cap;
//   - high-priority queue time stays bounded: the p99 queue time of
//     completed priority-0 sessions stays within the queue SLO at every
//     point while sheds absorb the excess (at 4x load something is refused);
//   - the cap engages: at least one capped point records a governor
//     ladder transition (heavy shedding can hold even the densest point's
//     draw under the cap, so the ladder need not climb everywhere);
//   - a second run of the densest capped point replays bit-exactly — same
//     admission fingerprint, same billed Joules (DESIGN §14).

#include <algorithm>
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
constexpr int kPriorities = 2;  // 0 = high, 1 = low
constexpr int kDisks = 4;       // RAID-5 primary store, as in serving_sweep
constexpr double kScaleFactor = 2.0;
constexpr int kWorkerFleet = 2;

// Overload knobs, expressed in units of the measured mean service time.
constexpr double kDeadlineServiceFactor = 8.0;
constexpr double kQueueSloServiceFactor = 4.0;
constexpr size_t kMaxQueueDepth = 6;
constexpr int kTenantInflight = 4;
// The governor watches the windowed rate of billed *direct* Joules
// (power/power_cap.h), so the cap is set against the sparsest point's
// direct draw: comfortably above it, well below the dense points' draw —
// dense load must climb the ladder.
constexpr double kCapOverSparseDraw = 1.3;
constexpr double kResumeFraction = 0.7;

struct SweepParams {
  std::vector<double> load_factors;  // densest load last
  size_t requests;
};

SweepParams ParamsFor(bool smoke) {
  if (smoke) return {{0.5, 2.0}, 10};
  return {{0.5, 1.0, 2.0, 4.0}, 28};
}

// One fixed burst-shaped request mix, stretched or compressed in time per
// load point, so every point refuses or serves identical work. The burst
// triples the arrival rate through the middle third of the (unscaled)
// window — the overload the protections exist for.
sim::ArrivalTrace TraceFor(size_t requests, double mean_interarrival_s) {
  sim::ArrivalTraceSpec spec;
  spec.seed = kTraceSeed;
  spec.tenants = kTenants;
  spec.requests = requests;
  spec.mean_interarrival_s = 1.0;
  spec.tenant_skew_theta = 0.5;
  spec.priority_classes = kPriorities;
  const double horizon = static_cast<double>(requests);
  spec.bursts.push_back({horizon / 3.0, horizon / 3.0, 3.0});
  sim::ArrivalTrace trace = sim::GenerateArrivalTrace(spec);
  for (sim::TraceRequest& req : trace.requests) {
    req.arrival_s *= mean_interarrival_s;
  }
  return trace;
}

sched::ServingReport RunPoint(const sim::ArrivalTrace& trace,
                              const sched::OverloadConfig& overload) {
  core::DbConfig db_config;
  db_config.preset = core::PlatformPreset::kProportional;
  db_config.hdd_count = kDisks;
  db_config.ssd_count = 0;
  db_config.hdd_spec.sustained_bw_bytes_per_s = 80.0 * 1e6;
  db_config.hdd_spec.active_watts = 17.0;
  db_config.hdd_spec.idle_watts = 12.0;
  auto db = core::EcoDb::Open(db_config).value();

  tpch::TpchConfig tc;
  tc.scale_factor = kScaleFactor;
  auto check = [](Status s) {
    if (!s.ok()) {
      std::fprintf(stderr, "overload_sweep: %s\n", s.message().c_str());
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
  config.worker_fleet = kWorkerFleet;
  config.overload = overload;
  return db->Serve(trace, config,
                   tpch::MakeServingFactory(orders, lineitem))
      .value();
}

bool Conserved(const sched::ServingReport& r) {
  return std::abs(r.billed_joules - r.total_joules) <=
         1e-9 * std::max(1.0, r.total_joules);
}

/// p99 (== max at these trace sizes) queue time of completed priority-0
/// sessions; 0 when none completed.
double HighPriorityP99QueueSeconds(const sched::ServingReport& r) {
  std::vector<double> queues;
  for (const sched::SessionBill& bill : r.sessions) {
    if (bill.priority == 0 &&
        bill.terminal == sched::SessionTerminal::kCompleted) {
      queues.push_back(bill.queue_seconds);
    }
  }
  if (queues.empty()) return 0.0;
  std::sort(queues.begin(), queues.end());
  const size_t idx =
      (queues.size() * 99 + 99) / 100 == 0
          ? 0
          : std::min(queues.size() - 1, (queues.size() * 99 + 99) / 100 - 1);
  return queues[idx];
}

uint64_t Refused(const sched::ServingReport& r) {
  return r.sessions_shed + r.sessions_evicted + r.sessions_deadline;
}

/// The direct (non-background) Joules the sessions billed — the quantity
/// the power-cap governor's windowed draw integrates.
double DirectBilledJoules(const sched::ServingReport& r) {
  double joules = 0.0;
  for (const sched::SessionBill& bill : r.sessions) {
    joules += bill.cpu_joules + bill.dram_joules + bill.io_joules +
              bill.fault_joules;
  }
  return joules;
}

void PrintPointJson(double load, const char* policy,
                    const sched::ServingReport& r, double slo_s) {
  bench::JsonLine()
      .Str("bench", "overload_sweep").Num("load_factor", "%.2f", load)
      .Str("policy", policy).Num("sessions", "%zu", r.sessions.size())
      .Num("completed", "%" PRIu64, r.sessions_completed)
      .Num("deadline", "%" PRIu64, r.sessions_deadline)
      .Num("shed", "%" PRIu64, r.sessions_shed)
      .Num("evicted", "%" PRIu64, r.sessions_evicted)
      .Num("window_s", "%.6f", r.window_end_s - r.window_start_s)
      .Num("total_joules", "%.6f", r.total_joules)
      .Num("billed_joules", "%.6f", r.billed_joules)
      .Num("hi_p99_queue_s", "%.6f", HighPriorityP99QueueSeconds(r))
      .Num("queue_slo_s", "%.6f", slo_s)
      .Num("governor_transitions", "%zu", r.governor_events.size())
      .Str("admission_fingerprint", "%016" PRIx64, r.admission_fingerprint)
      .Print();
}

int Main(bool smoke) {
  const SweepParams params = ParamsFor(smoke);
  bench::Banner(
      "Overload sweep: goodput and sheds vs offered load, cap off/on",
      "one seeded burst trace replayed per load factor through deadlines, "
      "admission backpressure, and the power-cap ladder; every refusal "
      "stays on the bill");

  // --- Calibration: mean service time and 1x draw at an unloaded point.
  const sim::ArrivalTrace calib_trace =
      TraceFor(params.requests, /*mean_interarrival_s=*/60.0);
  const sched::ServingReport calib =
      RunPoint(calib_trace, sched::OverloadConfig{});
  double service_sum = 0.0;
  for (const sched::SessionBill& bill : calib.sessions) {
    service_sum += bill.end_s - bill.admit_s;
  }
  const double mean_service_s =
      service_sum / static_cast<double>(calib.sessions.size());
  // Capacity: the fleet completes one query per mean_service/fleet seconds.
  const double capacity_interarrival_s =
      mean_service_s / static_cast<double>(kWorkerFleet);

  sched::OverloadConfig protections;
  protections.relative_deadline_s = kDeadlineServiceFactor * mean_service_s;
  protections.queue_slo_s = kQueueSloServiceFactor * mean_service_s;
  protections.max_queue_depth = kMaxQueueDepth;
  protections.per_tenant_inflight = kTenantInflight;

  struct Point {
    double load_factor = 0.0;
    sched::ServingReport uncapped;
    sched::ServingReport capped;
  };
  std::vector<Point> points;
  sched::OverloadConfig capped_cfg;  // cap derived from the 1st point's draw
  for (double load : params.load_factors) {
    const sim::ArrivalTrace trace =
        TraceFor(params.requests, capacity_interarrival_s / load);
    Point p;
    p.load_factor = load;
    p.uncapped = RunPoint(trace, protections);
    if (points.empty()) {
      // The cap pins above the sparsest uncapped point's direct draw:
      // denser points must climb the ladder to stay under it.
      const double draw =
          DirectBilledJoules(p.uncapped) /
          std::max(1e-9, p.uncapped.window_end_s - p.uncapped.window_start_s);
      capped_cfg = protections;
      capped_cfg.power_cap.enabled = true;
      capped_cfg.power_cap.cap_watts = kCapOverSparseDraw * draw;
      capped_cfg.power_cap.window_s = 4.0 * mean_service_s;
      capped_cfg.power_cap.max_pstate_steps = 2;
      capped_cfg.power_cap.min_fleet = 1;
      capped_cfg.power_cap.resume_fraction = kResumeFraction;
    }
    p.capped = RunPoint(trace, capped_cfg);
    points.push_back(std::move(p));
  }

  bench::Table table({"load", "cap", "done", "ddl", "shed", "evct",
                      "hi p99 q(s)", "gov steps", "billed (J)"});
  for (const Point& p : points) {
    for (const auto& pr : {std::pair{&p.uncapped, "off"},
                           std::pair{&p.capped, "on"}}) {
      const sched::ServingReport& r = *pr.first;
      table.AddRow({bench::Fmt("%.1fx", p.load_factor), pr.second,
                    std::to_string(r.sessions_completed),
                    std::to_string(r.sessions_deadline),
                    std::to_string(r.sessions_shed),
                    std::to_string(r.sessions_evicted),
                    bench::Fmt("%.3f", HighPriorityP99QueueSeconds(r)),
                    std::to_string(r.governor_events.size()),
                    bench::Fmt("%.2f", r.billed_joules)});
    }
  }
  table.Print();

  // JSON lines: header pins the schema and rig, one line per (load, cap)
  // point.
  bench::JsonLine()
      .Str("schema", "ecodb.overload.v1").Str("bench", "overload_sweep")
      .Num("seed", "%" PRIu64, kTraceSeed).Num("tenants", "%d", kTenants)
      .Num("priorities", "%d", kPriorities)
      .Num("requests", "%zu", params.requests)
      .Num("scale_factor", "%.2f", kScaleFactor).Str("platform", "proportional")
      .Num("disks", "%d", kDisks).Str("raid", "raid5")
      .Num("worker_fleet", "%d", kWorkerFleet)
      .Num("mean_service_s", "%.6f", mean_service_s)
      .Num("deadline_s", "%.6f", protections.relative_deadline_s)
      .Num("queue_slo_s", "%.6f", protections.queue_slo_s)
      .Num("max_queue_depth", "%zu", protections.max_queue_depth)
      .Num("tenant_inflight", "%d", protections.per_tenant_inflight)
      .Num("cap_watts", "%.3f", capped_cfg.power_cap.cap_watts)
      .Num("cap_window_s", "%.4f", capped_cfg.power_cap.window_s).Print();
  for (const Point& p : points) {
    PrintPointJson(p.load_factor, "uncapped", p.uncapped,
                   protections.queue_slo_s);
    PrintPointJson(p.load_factor, "capped", p.capped,
                   protections.queue_slo_s);
  }

  // --- Shape checks ------------------------------------------------------
  bench::ShapeCheck check(
      "bills conserve at every point incl. sheds; goodput degrades "
      "monotonically with load; high-priority p99 queue within SLO; "
      "overload sheds; cap ladder engages; densest capped point replays "
      "bit-exactly");
  bool conserved_all = true;
  for (const Point& p : points) {
    conserved_all =
        conserved_all && Conserved(p.uncapped) && Conserved(p.capped);
  }
  check.Expect(conserved_all, "bills do not sum to the meter");

  bool goodput_monotone = true;
  for (size_t i = 1; i < points.size(); ++i) {
    goodput_monotone =
        goodput_monotone &&
        points[i].uncapped.sessions_completed <=
            points[i - 1].uncapped.sessions_completed &&
        points[i].capped.sessions_completed <=
            points[i - 1].capped.sessions_completed;
  }
  check.Expect(goodput_monotone, "completed count rose with offered load");

  bool hi_priority_bounded = true;
  for (const Point& p : points) {
    hi_priority_bounded =
        hi_priority_bounded &&
        HighPriorityP99QueueSeconds(p.uncapped) <=
            protections.queue_slo_s + 1e-9 &&
        HighPriorityP99QueueSeconds(p.capped) <=
            protections.queue_slo_s + 1e-9;
  }
  check.Expect(hi_priority_bounded,
               "high-priority p99 queue exceeded the SLO");
  const Point& densest = points.back();
  check.Expect(Refused(densest.uncapped) > 0 && Refused(densest.capped) > 0,
               "no session was refused at %.1fx load", densest.load_factor);
  // The ladder must engage somewhere in the capped sweep: heavy shedding
  // can hold the densest point's draw under the cap, but some capped point
  // has to have climbed.
  bool cap_engages = false;
  for (const Point& p : points) {
    cap_engages = cap_engages || !p.capped.governor_events.empty();
  }
  check.Expect(cap_engages, "governor never stepped at any capped point");

  const sim::ArrivalTrace replay_trace = TraceFor(
      params.requests, capacity_interarrival_s / densest.load_factor);
  const sched::ServingReport replay = RunPoint(replay_trace, capped_cfg);
  check.Expect(
      replay.admission_fingerprint == densest.capped.admission_fingerprint &&
          replay.billed_joules == densest.capped.billed_joules &&
          replay.total_joules == densest.capped.total_joules,
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
