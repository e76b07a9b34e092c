// Ablation A5 (Section 5.2): the group-commit batching factor as an energy
// knob.
//
// "It may make sense to increase the batching factor (and increase response
// time) to avoid frequent commits on stable storage."
//
// The harness commits the same 2000-transaction insert stream under
// increasing group-commit sizes and reports log-device energy, flush count,
// and the commit-latency bound implied by the group timeout.

#include "bench_util.h"
#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/ssd.h"
#include "txn/wal.h"

namespace ecodb {
namespace {

constexpr int kTxns = 2000;
constexpr int kPayloadBytes = 120;

struct RunOutcome {
  double device_joules = 0;
  uint64_t flushes = 0;
  double bound_latency_s = 0;
};

RunOutcome RunStream(int group_size) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  power::SsdSpec log_spec;
  log_spec.write_latency_s = 200e-6;  // per-flush overhead dominates small IO
  storage::SsdDevice device("log-ssd", log_spec, &meter);

  txn::WalConfig config;
  config.group_commit_size = group_size;
  config.group_commit_timeout_s = 0.01;
  txn::WalManager wal(config, &clock, &device);

  double worst_latency = 0.0;
  for (txn::TxnId t = 1; t <= kTxns; ++t) {
    txn::LogRecord rec;
    rec.txn_id = t;
    rec.type = txn::LogRecordType::kInsert;
    rec.page = {1, static_cast<uint32_t>(t / 32)};
    rec.after.assign(kPayloadBytes, static_cast<uint8_t>(t));
    wal.Append(std::move(rec));
    const txn::CommitResult r = wal.Commit(t).value();
    worst_latency = std::max(worst_latency, r.durable_time - clock.now());
    clock.AdvanceTo(std::max(clock.now(), device.busy_until()));
  }
  (void)wal.Flush().value();
  clock.AdvanceTo(device.busy_until());

  RunOutcome out;
  // Attribute only the device's active (busy) energy to the log stream —
  // the idle floor belongs to the shared drive, not to this workload.
  out.device_joules = meter.ChannelBusySeconds(device.channel()) *
                      power::SsdSpec{}.active_watts;
  out.flushes = wal.stats().flushes;
  out.bound_latency_s = worst_latency;
  return out;
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A5: group-commit batching factor vs log energy",
      "2000 OLTP-style commits of 120 B records; per-flush device overhead "
      "200 us; sweep of the batching factor K");

  bench::Table table({"K (txns/flush)", "flushes", "log energy (J)",
                      "commit latency bound (ms)"});
  double joules_k1 = 0, joules_kmax = 0;
  const std::vector<int> ks = {1, 2, 4, 8, 16, 32, 64};
  for (int k : ks) {
    const RunOutcome out = RunStream(k);
    table.AddRow({std::to_string(k), bench::Fmt("%.0f", out.flushes),
                  bench::Fmt("%.3f", out.device_joules),
                  bench::Fmt("%.2f", out.bound_latency_s * 1e3)});
    if (k == 1) joules_k1 = out.device_joules;
    if (k == ks.back()) joules_kmax = out.device_joules;
  }
  table.Print();

  std::printf("K=%d uses %.1f%% of the K=1 log energy\n", ks.back(),
              joules_kmax / joules_k1 * 100.0);
  bench::ShapeCheck check("larger batching factor cuts log energy");
  check.Expect(joules_kmax < joules_k1 * 0.5,
               "K=%d keeps more than half the K=1 log energy", ks.back());
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
