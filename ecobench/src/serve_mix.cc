// serve_mix: an open loop in simulated time. EcoDb::Serve replays a seeded
// Poisson trace (4 tenants, Zipf 0.5, 2 priority classes, one short burst
// above capacity) on a 4-HDD RAID-5 box, with batching, shared scans and a
// queue SLO + deadline on. Arrivals are scheduled on the simulated clock,
// so the host replays the trace as fast as it can and never runs late.
//
// Host time per session is the factory call plus the time spent inside the
// session's operator tree, taken by a timing decorator around each factory
// root, plus an equal share of Serve's own host work (admission, queueing,
// batching, shared-scan bookkeeping, settlement, billing). The factory
// bypasses the planner.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ecodb.h"
#include "exec/expr.h"
#include "sim/arrival_trace.h"
#include "tpch/generator.h"
#include "tpch/workload.h"

namespace ecobench {

namespace {

using ecodb::Status;
using ecodb::StatusOr;
using ecodb::core::EcoDb;
using ecodb::sched::ServingReport;
using ecodb::sched::SessionManager;

constexpr double kScaleFactor = 1.0;
// setup_s is the median of these, spread over the run; a set-up takes about
// 0.04 s.
constexpr int kSetupReps = 21;
constexpr size_t kRequests = 6000;
constexpr size_t kShortRequests = 300;  // replay identity and host-time top-up
constexpr size_t kCapacityRequests = 1000;
constexpr int kTenants = 4;
constexpr double kTenantTheta = 0.5;
constexpr int kPriorities = 2;
// Offered load of the main trace, 167 requests/s: about half the SLO
// capacity, where the modeled p99 repeats within a few percent across seeds
// (at 70% of capacity it moved by a fifth). Fixed, so a slower engine meets
// the same offered load.
constexpr double kMeanInterarrivalS = 0.006;
// Capacity probes replay one fixed trace shape at each probed rate, so the
// capacity follows the engine and the seed's data, not one trace's luck.
constexpr uint64_t kCapacityTraceSeed = 2009;
// Where the capacity search starts: near the capacity measured when the
// benchmark was defined. It changes how many probes the search needs, never
// its answer.
constexpr double kCapacityGuessQps = 355.0;
// One short burst above capacity, a fifth of the way into the trace.
constexpr double kBurstStartFraction = 0.2;
constexpr double kBurstDurationFraction = 0.004;
constexpr double kBurstMultiplier = 1.8;
constexpr int kWorkerFleet = 2;
constexpr double kBatchWindowS = 0.02;
constexpr double kShareWindowS = 1.0;
constexpr double kQueueSloS = 1.0;
constexpr double kDeadlineS = 2.0;
// slo_capacity_qps: the highest rate on a geometric ladder from 150/s up in
// 2% steps at which the modeled p99 stays within 250 ms.
constexpr double kSloLimitMs = 250.0;
constexpr double kLadderStartQps = 150.0;
constexpr double kLadderRatio = 1.02;
constexpr int kLadderSteps = 60;
constexpr size_t kLayerSampleRequests = 100;
// The traced twin's median session time stays within this share of the
// untraced twin's.
constexpr double kMaxTraceOverheadShare = 0.15;
constexpr int kPrefixReps = 9;
constexpr double kLoopCapSeconds = 150.0;

/// Host time one session spent in the factory and in its operator tree, and
/// the benchmark's own work done in its factory call (kernel runs, timed
/// set-ups), which no host metric counts.
struct SessionTiming {
  double factory_start_us = 0.0;
  double factory_us = 0.0;
  double bench_us = 0.0;
  double busy_us = 0.0;
  double first_us = -1.0;
  double last_us = 0.0;
  double factor = 1.0;
};

/// Timing decorator around a factory root: accumulates the host time spent
/// inside Open/Next/Close of the wrapped tree.
class TimedOp : public ecodb::exec::Operator {
 public:
  TimedOp(ecodb::exec::OperatorPtr child, SessionTiming* timing)
      : child_(std::move(child)), timing_(timing) {}

  const ecodb::catalog::Schema& output_schema() const override {
    return child_->output_schema();
  }
  Status Open(ecodb::exec::ExecContext* ctx) override {
    return Timed([&] { return child_->Open(ctx); });
  }
  Status Next(ecodb::exec::RecordBatch* out, bool* eos) override {
    return Timed([&] { return child_->Next(out, eos); });
  }
  void Close() override {
    (void)Timed([&] {
      child_->Close();
      return Status::OK();
    });
  }

 private:
  template <typename Fn>
  Status Timed(Fn fn) {
    const double start = NowUs();
    Status status = fn();
    const double end = NowUs();
    if (timing_->first_us < 0) timing_->first_us = start;
    timing_->last_us = end;
    timing_->busy_us += end - start;
    return status;
  }

  ecodb::exec::OperatorPtr child_;
  SessionTiming* timing_;
};

struct ServeSetup {
  std::unique_ptr<EcoDb> db;
  ecodb::storage::TableStorage* orders = nullptr;
  ecodb::storage::TableStorage* lineitem = nullptr;
};

ecodb::core::DbConfig ServeDbConfig() {
  ecodb::core::DbConfig config;
  config.hdd_count = 4;
  config.raid_level = ecodb::storage::RaidLevel::kRaid5;
  config.ssd_count = 0;
  config.hdd_spec.sustained_bw_bytes_per_s = 80.0 * 1e6;
  config.hdd_spec.active_watts = 17.0;
  config.hdd_spec.idle_watts = 12.0;
  return config;
}

StatusOr<ServeSetup> SetupServe(uint64_t seed,
                                std::map<std::string, double>* timing) {
  ServeSetup setup;
  ecodb::tpch::TpchConfig tc;
  tc.scale_factor = kScaleFactor;
  tc.seed = DataSeed(seed);
  const double start = NowUs();
  ECODB_ASSIGN_OR_RETURN(setup.db, EcoDb::Open(ServeDbConfig()));
  std::vector<ecodb::storage::ColumnData> orders =
      ecodb::tpch::GenerateOrders(tc);
  std::vector<ecodb::storage::ColumnData> lineitem =
      ecodb::tpch::GenerateLineitem(tc);
  const double generated = NowUs();
  EcoDb* db = setup.db.get();
  ECODB_RETURN_IF_ERROR(db->CreateTable("orders", ecodb::tpch::OrdersSchema()));
  ECODB_RETURN_IF_ERROR(db->Load("orders", orders));
  ECODB_RETURN_IF_ERROR(
      db->CreateTable("lineitem", ecodb::tpch::LineitemSchema()));
  ECODB_RETURN_IF_ERROR(db->Load("lineitem", lineitem));
  const double end = NowUs();
  (*timing)["tpch.generate_s"] = (generated - start) / 1e6;
  (*timing)["storage.load_s"] = (end - generated) / 1e6;
  (*timing)["setup_s"] = (end - start) / 1e6;
  ECODB_ASSIGN_OR_RETURN(setup.orders, db->table("orders"));
  ECODB_ASSIGN_OR_RETURN(setup.lineitem, db->table("lineitem"));
  return setup;
}

ecodb::sim::ArrivalTrace Trace(uint64_t seed, size_t requests,
                               double mean_interarrival_s, bool burst) {
  ecodb::sim::ArrivalTraceSpec spec;
  spec.seed = seed;
  spec.tenants = kTenants;
  spec.requests = requests;
  spec.mean_interarrival_s = mean_interarrival_s;
  spec.tenant_skew_theta = kTenantTheta;
  spec.priority_classes = kPriorities;
  if (burst) {
    const double horizon = mean_interarrival_s * static_cast<double>(requests);
    spec.bursts.push_back({kBurstStartFraction * horizon,
                           kBurstDurationFraction * horizon,
                           kBurstMultiplier});
  }
  return ecodb::sim::GenerateArrivalTrace(spec);
}

ecodb::sched::ServingConfig ServingConfig() {
  ecodb::sched::ServingConfig config;
  config.worker_fleet = kWorkerFleet;
  config.batching.window_s = kBatchWindowS;
  config.share_window_s = kShareWindowS;
  config.exec_options.dop = 1;
  config.overload.queue_slo_s = kQueueSloS;
  config.overload.relative_deadline_s = kDeadlineS;
  return config;
}

/// One Serve call with host timings per session.
struct Replay {
  ServingReport report;
  std::vector<SessionTiming> sessions;  // by trace index
  double wall_us = 0.0;
};

/// Serves `trace` on `setup` with host timings per session; `setups` (may
/// be null) times another set-up from the factory when one is due.
StatusOr<Replay> ServeTimed(ServeSetup* setup,
                            const ecodb::sim::ArrivalTrace& trace,
                            SpeedCorrector* corrector, SetupTimer* setups,
                            Tracer* tracer) {
  Replay replay;
  replay.sessions.resize(trace.requests.size());
  const SessionManager::QueryFactory inner =
      ecodb::tpch::MakeServingFactory(setup->orders, setup->lineitem);
  const SessionManager::QueryFactory factory =
      [&](const ecodb::sim::TraceRequest& req)
      -> StatusOr<SessionManager::PlannedQuery> {
    SessionTiming& timing = replay.sessions[req.index];
    const double bench_start = NowUs();
    if (setups != nullptr) ECODB_RETURN_IF_ERROR(setups->Tick());
    timing.factor = corrector->Sample();
    const double start = NowUs();
    timing.factory_start_us = start;
    timing.bench_us += start - bench_start;
    StatusOr<SessionManager::PlannedQuery> pq = inner(req);
    timing.factory_us += NowUs() - start;
    if (!pq.ok()) return pq;
    pq->root = std::make_unique<TimedOp>(std::move(pq->root), &timing);
    return pq;
  };
  const int64_t root = tracer->Begin("sched.serve", -1, -1);
  const double start = NowUs();
  ECODB_ASSIGN_OR_RETURN(replay.report,
                         setup->db->Serve(trace, ServingConfig(), factory));
  replay.wall_us = NowUs() - start;
  tracer->End(root);
  if (tracer->enabled()) {
    for (size_t i = 0; i < replay.sessions.size(); ++i) {
      const SessionTiming& s = replay.sessions[i];
      if (s.first_us < 0) continue;
      tracer->Add("sched.factory", root, static_cast<int64_t>(i),
                  s.factory_start_us, s.factory_start_us + s.factory_us);
      tracer->Add("exec.session", root, static_cast<int64_t>(i), s.first_us,
                  s.last_us);
    }
  }
  return replay;
}

/// Host samples of one replay, one per session that ran: its factory and
/// tree time plus an equal share of Serve's own host time, so the samples
/// add up to Serve's wall time less the benchmark's own work. `self_ms` gets that share,
/// speed-corrected.
std::vector<HostSample> SessionSamples(const Replay& rep, double* self_ms) {
  double inside_us = 0.0;
  size_t ran = 0;
  std::vector<double> factors;
  for (const SessionTiming& s : rep.sessions) {
    inside_us += s.factory_us + s.busy_us + s.bench_us;
    if (s.first_us < 0) continue;
    ++ran;
    factors.push_back(s.factor);
  }
  std::vector<HostSample> samples;
  if (ran == 0) return samples;
  const double share_us = (rep.wall_us - inside_us) / static_cast<double>(ran);
  for (const SessionTiming& s : rep.sessions) {
    if (s.first_us < 0) continue;
    samples.push_back({(s.factory_us + s.busy_us + share_us) / 1000.0, s.factor});
  }
  if (self_ms != nullptr) *self_ms = share_us / 1000.0 * Median(factors);
  return samples;
}

bool Conserved(const ServingReport& r) {
  return std::abs(r.billed_joules - r.total_joules) <=
         1e-9 * std::max(1.0, r.total_joules);
}

uint64_t Refused(const ServingReport& r) {
  return r.sessions_shed + r.sessions_evicted + r.sessions_deadline;
}

/// Arrival-to-end latency per session in ms; refused sessions count as
/// missing every limit (infinity).
std::vector<double> ModeledLatencyMs(const ServingReport& r) {
  std::vector<double> ms;
  for (const auto& bill : r.sessions) {
    ms.push_back(bill.terminal == ecodb::sched::SessionTerminal::kCompleted
                     ? (bill.end_s - bill.arrival_s) * 1000.0
                     : INFINITY);
  }
  return ms;
}

/// Highest ladder rate at which the fixed no-burst capacity trace completes
/// every request with modeled p99 within the limit, each probed rate on a
/// fresh database. The search starts at the rung nearest kCapacityGuessQps,
/// gallops away from it until the answer is bracketed, then bisects: a
/// denser replay of the same trace never queues less. Near the guess it
/// settles in two probes; far from it, in a few more.
StatusOr<double> SloCapacity(const Options& options, RunResult* result) {
  const std::vector<double> ladder =
      RateLadder(kLadderStartQps, kLadderRatio, kLadderSteps);
  int64_t probes = 0;
  auto meets = [&](int64_t rung) -> StatusOr<bool> {
    ++probes;
    std::map<std::string, double> ignored;
    ECODB_ASSIGN_OR_RETURN(ServeSetup setup,
                           SetupServe(options.seed, &ignored));
    ECODB_ASSIGN_OR_RETURN(
        ServingReport r,
        setup.db->Serve(
            Trace(kCapacityTraceSeed, kCapacityRequests,
                  1.0 / ladder[static_cast<size_t>(rung)], /*burst=*/false),
            ServingConfig(),
            ecodb::tpch::MakeServingFactory(setup.orders, setup.lineitem)));
    return Refused(r) == 0 && Conserved(r) &&
           Percentile(ModeledLatencyMs(r), 0.99) <= kSloLimitMs;
  };
  int64_t pass = -1;  // highest rung known to meet the limit
  int64_t fail = static_cast<int64_t>(ladder.size());  // lowest known to miss
  const int64_t guess = std::min<int64_t>(
      fail - 1, std::lower_bound(ladder.begin(), ladder.end(),
                                 kCapacityGuessQps) -
                    ladder.begin());
  ECODB_ASSIGN_OR_RETURN(const bool guess_meets, meets(guess));
  (guess_meets ? pass : fail) = guess;
  for (int64_t step = 1;; step *= 2) {
    const int64_t next = guess_meets ? pass + step : fail - step;
    if (next >= fail || next <= pass) break;
    ECODB_ASSIGN_OR_RETURN(const bool next_meets, meets(next));
    (next_meets ? pass : fail) = next;
    if (next_meets != guess_meets) break;
  }
  while (fail - pass > 1) {
    const int64_t mid = (pass + fail) / 2;
    ECODB_ASSIGN_OR_RETURN(const bool mid_meets, meets(mid));
    (mid_meets ? pass : fail) = mid;
  }
  result->details["slo_capacity_probes"] = static_cast<double>(probes);
  return pass >= 0 ? ladder[static_cast<size_t>(pass)] : 0.0;
}

/// Standalone runs of the first requests' plans, for the counters Serve
/// does not expose per session: instructions, I/O bytes, decode time.
Status SampleLayers(ServeSetup* setup, const ecodb::sim::ArrivalTrace& trace,
                    SpeedCorrector* corrector, RunResult* result) {
  const SessionManager::QueryFactory factory =
      ecodb::tpch::MakeServingFactory(setup->orders, setup->lineitem);
  double instructions = 0.0, io_bytes = 0.0;
  std::vector<double> read_ms;
  const size_t n = std::min(kLayerSampleRequests, trace.requests.size());
  for (size_t i = 0; i < n; ++i) {
    ECODB_ASSIGN_OR_RETURN(SessionManager::PlannedQuery pq,
                           factory(trace.requests[i]));
    ECODB_ASSIGN_OR_RETURN(ecodb::core::QueryOutcome outcome,
                           setup->db->Run(pq.root.get()));
    instructions += outcome.stats.cpu_instructions;
    io_bytes += static_cast<double>(outcome.stats.io_bytes);
    const double factor = corrector->Sample();
    const double start = NowUs();
    for (const auto& scan : pq.scans) {
      for (int column : scan.columns) {
        ECODB_RETURN_IF_ERROR(scan.table->ReadColumn(column).status());
      }
    }
    read_ms.push_back((NowUs() - start) / 1000.0 * factor);
  }
  result->metrics["exec.instructions"] = instructions / n;
  result->metrics["storage.io_bytes"] = io_bytes / n;
  result->metrics["storage.read_column_ms"] = Median(read_ms);

  // Filter and aggregate self times on the Q1 shape the mix serves, as
  // differences between operator-prefix specs through the facade.
  ECODB_ASSIGN_OR_RETURN(const ecodb::catalog::TableEntry* entry,
                         setup->db->catalog()->GetTable("lineitem"));
  ecodb::optimizer::QuerySpec scan;
  scan.left.name = "lineitem";
  scan.left.variants = {setup->lineitem};
  scan.left.columns = {"l_returnflag", "l_quantity", "l_extendedprice",
                       "l_discount", "l_shipdate"};
  scan.left.stats = &entry->stats;
  ecodb::optimizer::QuerySpec filtered = scan;
  filtered.left.filter = ecodb::exec::Col("l_shipdate") <=
                         ecodb::exec::LitDate(ecodb::tpch::kDateRangeDays - 90);
  ecodb::optimizer::QuerySpec aggregated = filtered;
  aggregated.group_by = {"l_returnflag"};
  aggregated.aggregates = {
      {"sum_qty", ecodb::exec::AggFunc::kSum, ecodb::exec::Col("l_quantity")},
      {"count_order", ecodb::exec::AggFunc::kCount, nullptr}};
  const std::vector<const ecodb::optimizer::QuerySpec*> specs = {
      &scan, &filtered, &aggregated};
  std::vector<std::vector<double>> ms(specs.size());
  for (int rep = 0; rep < kPrefixReps; ++rep) {
    for (size_t s = 0; s < specs.size(); ++s) {
      const double factor = corrector->Sample();
      const double start = NowUs();
      ECODB_RETURN_IF_ERROR(
          setup->db->Execute(*specs[s], ecodb::optimizer::Objective{})
              .status());
      ms[s].push_back((NowUs() - start) / 1000.0 * factor);
    }
  }
  result->metrics["exec.filter_ms"] = Median(ms[1]) - Median(ms[0]);
  result->metrics["exec.aggregate_ms"] = Median(ms[2]) - Median(ms[1]);
  return Status::OK();
}

}  // namespace

StatusOr<RunResult> RunServeMix(const Options& options) {
  RunResult result;
  SpeedCorrector corrector;
  // Every set-up is timed; the first three databases serve the main trace
  // and the replay twins, the later ones are only timed.
  std::vector<ServeSetup> setups;
  SetupTimer setup_timer(
      &corrector,
      [&](std::map<std::string, double>* timing) -> Status {
        ECODB_ASSIGN_OR_RETURN(ServeSetup setup,
                               SetupServe(options.seed, timing));
        if (setups.size() < 3) setups.push_back(std::move(setup));
        return Status::OK();
      },
      kSetupReps, options.seconds);
  for (int i = 0; i < 3; ++i) ECODB_RETURN_IF_ERROR(setup_timer.Run());
  Tracer untraced(false);
  Tracer tracer(options.trace);

  // Replay identity: a short trace served on two identical fresh databases
  // (the second one traced in the traced run) must repeat its admission
  // schedule and bills bit for bit.
  const ecodb::sim::ArrivalTrace short_trace = Trace(
      options.seed, kShortRequests, kMeanInterarrivalS, /*burst=*/false);
  ECODB_ASSIGN_OR_RETURN(
      Replay twin_a,
      ServeTimed(&setups[1], short_trace, &corrector, nullptr, &untraced));
  ECODB_ASSIGN_OR_RETURN(
      Replay twin_b,
      ServeTimed(&setups[2], short_trace, &corrector, nullptr, &tracer));
  result.checks["serve_replay_identical"] =
      twin_a.report.admission_fingerprint ==
          twin_b.report.admission_fingerprint &&
      twin_a.report.billed_joules == twin_b.report.billed_joules &&
      twin_a.report.total_joules == twin_b.report.total_joules;

  // The main trace on a fresh database gives the modeled metrics; replays
  // of the short trace go on until --seconds of host time have passed.
  Tracer* replay_tracer = options.trace ? &tracer : &untraced;
  const ecodb::sim::ArrivalTrace trace =
      Trace(options.seed, kRequests, kMeanInterarrivalS, /*burst=*/true);
  std::vector<Replay> replays;
  const double start = NowUs();
  ECODB_ASSIGN_OR_RETURN(
      Replay main_replay,
      ServeTimed(&setups[0], trace, &corrector, &setup_timer, replay_tracer));
  replays.push_back(std::move(main_replay));
  while (NowUs() - start < options.seconds * 1e6 &&
         NowUs() - start < kLoopCapSeconds * 1e6) {
    ECODB_ASSIGN_OR_RETURN(
        Replay replay,
        ServeTimed(&setups[0], short_trace, &corrector, &setup_timer,
                   replay_tracer));
    replays.push_back(std::move(replay));
  }

  ECODB_RETURN_IF_ERROR(setup_timer.Report(&result));
  ECODB_ASSIGN_OR_RETURN(const double capacity, SloCapacity(options, &result));
  result.metrics["slo_capacity_qps"] = capacity;

  bool conserved = Conserved(twin_a.report) && Conserved(twin_b.report);
  std::vector<HostSample> host;
  std::vector<double> factory_us, run_ms, self_ms;
  // Host time in the factory and session spans, and Serve's whole host time,
  // both without the benchmark's own work.
  double inside_us = 0.0, outside_us = 0.0;
  for (const Replay& rep : replays) {
    conserved = conserved && Conserved(rep.report);
    result.attempted += rep.report.sessions.size();
    result.refused += Refused(rep.report);
    double self = 0.0;
    for (const HostSample& sample : SessionSamples(rep, &self)) {
      host.push_back(sample);
    }
    self_ms.push_back(self);
    double bench_us = 0.0;
    for (const SessionTiming& s : rep.sessions) {
      bench_us += s.bench_us;
      if (s.first_us < 0) continue;
      factory_us.push_back(s.factory_us * s.factor);
      run_ms.push_back(s.busy_us / 1000.0 * s.factor);
      inside_us += s.factory_us + s.busy_us;
    }
    outside_us += rep.wall_us - bench_us;
  }
  // Host time per session of the untraced and the traced twin.
  std::vector<double> untraced_ms, traced_ms;
  for (const auto& [twin, out] :
       {std::pair{&twin_a, &untraced_ms}, std::pair{&twin_b, &traced_ms}}) {
    result.attempted += twin->report.sessions.size();
    result.refused += Refused(twin->report);
    for (const HostSample& sample : SessionSamples(*twin, nullptr)) {
      out->push_back(sample.corrected_ms());
    }
  }
  result.checks["serve_conserved"] = conserved;
  ReportHost(host, corrector, &result);

  // Modeled metrics: the first replay only (fresh database, fixed order).
  const ServingReport& r = replays[0].report;
  const std::vector<double> latency = ModeledLatencyMs(r);
  result.metrics["modeled_ms_p50"] = Percentile(latency, 0.50);
  result.metrics["modeled_ms_p99"] = Percentile(latency, 0.99);
  result.metrics["joules_per_query"] =
      r.sessions_completed ? r.total_joules / r.sessions_completed : 0.0;
  result.details["modeled_samples"] = static_cast<double>(latency.size());
  result.details["refused_first_replay"] = static_cast<double>(Refused(r));
  double service_s = 0.0;
  for (const auto& bill : r.sessions) service_s += bill.end_s - bill.admit_s;
  result.details["mean_service_ms"] =
      1000.0 * service_s / static_cast<double>(std::max<size_t>(1, r.sessions.size()));
  result.details["offered_qps"] = 1.0 / kMeanInterarrivalS;
  result.details["replays"] = static_cast<double>(replays.size());

  if (options.trace) {
    auto& m = result.metrics;
    for (const char* name :
         {"optimizer.plan_us", "optimizer.build_us", "optimizer.joules_qerror",
          "optimizer.rows_qerror", "optimizer.compressed_pick_rate",
          "optimizer.index_pick_rate", "optimizer.topk_pick_rate",
          "optimizer.dop_mean", "exec.sort_ms", "exec.topk_ms",
          "storage.clone_compress_s", "storage.index_s"}) {
      m[name] = 0.0;  // the factory bypasses the planner
    }
    m["exec.run_ms"] = Median(run_ms);
    m["sched.factory_us"] = Median(factory_us);
    m["sched.self_ms"] = Median(self_ms);
    std::vector<double> queue_ms;
    double cpu = 0, dram = 0, io = 0, background = 0;
    for (const auto& bill : r.sessions) {
      queue_ms.push_back(bill.queue_seconds * 1000.0);
      cpu += bill.cpu_joules;
      dram += bill.dram_joules;
      io += bill.io_joules + bill.fault_joules;
      background += bill.background_joules;
    }
    const double completed =
        std::max<double>(1.0, static_cast<double>(r.sessions_completed));
    m["sched.queue_ms_p99"] = Percentile(queue_ms, 0.99);
    m["sched.share_rate"] = r.shared_scans.ShareRate();
    m["sched.batches_per_100"] =
        100.0 * static_cast<double>(r.batches_dispatched) /
        static_cast<double>(std::max<size_t>(1, r.sessions.size()));
    m["sched.shed"] = static_cast<double>(r.sessions_shed);
    m["sched.evicted"] = static_cast<double>(r.sessions_evicted);
    m["sched.deadline_kills"] = static_cast<double>(r.sessions_deadline);
    m["power.cpu_j"] = cpu / completed;
    m["power.dram_j"] = dram / completed;
    m["power.io_j"] = io / completed;
    m["power.background_j"] = background / completed;
    m["trace.untraced_ms_p50"] = Median(untraced_ms);
    m["trace.query_ms_p50"] = Median(traced_ms);
    m["trace.overhead_ms"] = Median(traced_ms) - Median(untraced_ms);
    // Share of Serve's host time inside the factory and session spans; the
    // rest is sched.self_ms.
    m["trace.span_coverage"] = outside_us > 0 ? inside_us / outside_us : 0.0;
    result.checks["trace_overhead_small"] =
        std::abs(Median(traced_ms) - Median(untraced_ms)) <=
        kMaxTraceOverheadShare * Median(untraced_ms);
    ECODB_RETURN_IF_ERROR(
        SampleLayers(&setups[2], trace, &corrector, &result));
    if (!options.spans_path.empty()) {
      ECODB_RETURN_IF_ERROR(tracer.WriteJsonl(
          options.spans_path,
          "{\"schema\":\"ecobench.spans.v1\",\"workload\":\"serve_mix\","
          "\"seed\":" +
              std::to_string(options.seed) + "}"));
    }
  }
  result.metrics["peak_rss_mb"] = PeakRssMb();
  return result;
}

}  // namespace ecobench
