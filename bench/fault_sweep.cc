// Fault sweep: energy efficiency of a RAID-5 array across its availability
// states — healthy, degraded (one member dead, reads reconstructed), and
// rebuilding onto a spare.
//
// The paper's Figure 1 machine runs 36-204 drives; at fleet scale degraded
// mode is the steady state, and its energy price is invisible to a bench
// that only measures healthy hardware. This harness runs one fixed
// sequential-scan workload against a 4-disk RAID-5 array in each state and
// reports the energy delta, the retry accounting (a FaultPlan injects
// transient errors on one member throughout), and the rebuild's own bill.
// Emitted as `ecodb.faults.v1` JSON lines for plotting.
//
// Shape checks (exit code):
//   - the degraded scan costs strictly more Joules and XOR instructions
//     than the healthy scan, and the XOR work matches the analytic model
//     (xor_instructions_per_byte x (n-1) x dead-member share);
//   - transient errors are retried, and the retries carry nonzero charged
//     energy (free retries would falsify the availability/energy tradeoff);
//   - after the rebuild completes the array is healthy again and the scan
//     returns to the healthy shape (no degraded reads);
//   - a second run of the whole sweep from the same FaultPlan seed replays
//     bit-identically (the DESIGN §7 determinism contract).

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "power/platform.h"
#include "storage/disk_array.h"
#include "storage/fault_injector.h"
#include "storage/hdd.h"

namespace ecodb {
namespace {

constexpr int kDisks = 4;
constexpr uint64_t kScanBytes = 512ull << 20;   // per-phase scan volume
constexpr uint64_t kChunkBytes = 8ull << 20;    // scan request size
constexpr uint64_t kRebuildBytes = 128ull << 20;  // dead member's extent
constexpr uint64_t kRebuildChunk = 16ull << 20;
constexpr double kRebuildRate = 48.0 * 1e6;  // throttled bytes/s
constexpr uint64_t kFaultSeed = 2026;

power::HddSpec Scsi15k() {
  power::HddSpec spec;  // 15K SCSI class, as in the Figure 1 array
  spec.sustained_bw_bytes_per_s = 80.0 * 1e6;
  spec.active_watts = 17.0;
  spec.idle_watts = 12.0;
  spec.standby_watts = 2.5;
  return spec;
}

storage::ArraySpec SweepArraySpec() {
  storage::ArraySpec spec;
  spec.level = storage::RaidLevel::kRaid5;
  spec.stripe_skew_alpha = 0.0;  // isolate the fault model from skew
  spec.per_request_overhead_s = 0.0;
  spec.controller_bw_bytes_per_s = 1e15;
  return spec;
}

// Transient errors on one member for the whole sweep: a low hashed rate
// plus one pinned early index so every run shows retries.
storage::FaultPlan SweepFaultPlan() {
  storage::FaultPlan plan;
  plan.seed = kFaultSeed;
  storage::DeviceFaultSpec flaky;
  flaky.device = "hdd3";
  flaky.transient_error_rate = 0.02;
  flaky.transient_ios = {2};
  plan.devices.push_back(flaky);
  return plan;
}

// One availability state's measurement of the fixed scan workload.
struct PhaseOutcome {
  std::string phase;
  double start_time = 0.0;
  double end_time = 0.0;
  double joules = 0.0;  // meter delta across the phase (devices + XOR)
  storage::IoResult faults;  // accumulated fault accounting

  double Seconds() const { return end_time - start_time; }
  double MBPerJoule() const {
    return joules > 0.0 ? (kScanBytes / 1e6) / joules : 0.0;
  }
};

// The whole sweep's state: platform + injector + array share one meter so
// every retry, reconstruction, and rebuild lands on the same bill.
struct Rig {
  std::unique_ptr<power::HardwarePlatform> platform;
  std::unique_ptr<storage::FaultInjector> injector;
  std::unique_ptr<storage::DiskArray> array;
};

Rig MakeRig() {
  Rig rig;
  rig.platform = power::MakeDl785Platform();
  rig.injector = std::make_unique<storage::FaultInjector>(SweepFaultPlan());
  std::vector<std::unique_ptr<storage::StorageDevice>> members;
  for (int i = 0; i < kDisks; ++i) {
    auto hdd = std::make_unique<storage::HddDevice>(
        "hdd" + std::to_string(i), Scsi15k(), rig.platform->meter());
    members.push_back(std::make_unique<storage::FaultInjectedDevice>(
        std::move(hdd), rig.injector.get(), rig.platform->meter()));
  }
  auto array_or = storage::DiskArray::Create(
      "array", SweepArraySpec(), std::move(members), rig.platform->meter());
  if (!array_or.ok()) {
    std::fprintf(stderr, "array construction failed: %s\n",
                 array_or.status().message().c_str());
    std::exit(1);
  }
  rig.array = std::move(*array_or);
  return rig;
}

// Sequential chunked scan of kScanBytes starting at `start`; accumulates
// fault accounting and brackets the meter to price the phase.
PhaseOutcome RunScan(Rig* rig, const std::string& phase, double start) {
  PhaseOutcome out;
  out.phase = phase;
  out.start_time = start;
  const double joules_before = rig->platform->meter()->TotalJoules();
  double t = start;
  for (uint64_t done = 0; done < kScanBytes; done += kChunkBytes) {
    auto r = rig->array->SubmitRead(t, kChunkBytes, /*sequential=*/true);
    if (!r.ok()) {
      std::fprintf(stderr, "%s scan failed: %s\n", phase.c_str(),
                   r.status().message().c_str());
      std::exit(1);
    }
    out.faults.AccumulateFaults(*r);
    t = r->completion_time;
  }
  out.end_time = t;
  out.joules = rig->platform->meter()->TotalJoules() - joules_before;
  return out;
}

struct SweepResult {
  PhaseOutcome healthy;
  PhaseOutcome degraded;
  PhaseOutcome rebuilt;
  storage::RebuildReport rebuild;
};

SweepResult RunSweep() {
  Rig rig = MakeRig();
  SweepResult res;

  res.healthy = RunScan(&rig, "healthy", 0.0);

  if (!rig.array->FailMember(1, res.healthy.end_time).ok()) std::exit(1);
  res.degraded = RunScan(&rig, "degraded", res.healthy.end_time);

  storage::RebuildConfig cfg;
  cfg.total_bytes = kRebuildBytes;
  cfg.chunk_bytes = kRebuildChunk;
  cfg.rate_bytes_per_s = kRebuildRate;
  auto spare = std::make_unique<storage::HddDevice>("spare", Scsi15k(),
                                                    rig.platform->meter());
  auto report = storage::RebuildScheduler(rig.array.get())
                    .Run(std::move(spare), res.degraded.end_time, cfg);
  if (!report.ok()) {
    std::fprintf(stderr, "rebuild failed: %s\n",
                 report.status().message().c_str());
    std::exit(1);
  }
  res.rebuild = *report;

  res.rebuilt = RunScan(&rig, "rebuilt", res.rebuild.end_time);
  return res;
}

void PrintPhaseJson(const PhaseOutcome& p) {
  bench::JsonLine()
      .Str("bench", "fault_sweep").Str("phase", p.phase)
      .Num("io_bytes", "%" PRIu64, kScanBytes)
      .Num("sim_seconds", "%.6f", p.Seconds()).Num("joules", "%.3f", p.joules)
      .Num("mb_per_joule", "%.3f", p.MBPerJoule())
      .Num("transient_errors", "%u", p.faults.transient_errors)
      .Num("retry_seconds", "%.6f", p.faults.retry_seconds)
      .Num("retry_joules", "%.6f", p.faults.retry_joules)
      .Num("degraded_reads", "%u", p.faults.degraded_reads)
      .Num("reconstruct_instructions", "%.1f",
           p.faults.reconstruct_instructions)
      .Num("reconstruct_joules", "%.6f", p.faults.reconstruct_joules).Print();
}

}  // namespace

int Main() {
  bench::Banner(
      "Fault sweep: RAID-5 energy efficiency across availability states",
      "4 x 15K SCSI RAID-5, 512 MiB sequential scan per state; transient "
      "faults on hdd3 throughout; rebuild throttled to 48 MB/s");

  const SweepResult res = RunSweep();

  bench::Table table({"phase", "time (s)", "joules", "MB/J", "retries",
                      "retry J", "degraded reads", "xor J"});
  for (const PhaseOutcome* p :
       {&res.healthy, &res.degraded, &res.rebuilt}) {
    table.AddRow({p->phase, bench::Fmt("%.2f", p->Seconds()),
                  bench::Fmt("%.1f", p->joules),
                  bench::Fmt("%.3f", p->MBPerJoule()),
                  std::to_string(p->faults.transient_errors),
                  bench::Fmt("%.4f", p->faults.retry_joules),
                  std::to_string(p->faults.degraded_reads),
                  bench::Fmt("%.4f", p->faults.reconstruct_joules)});
  }
  table.Print();

  std::printf("rebuild: %.1f MiB in %" PRIu64
              " chunks over %.2f s, %.0f XOR instructions (%.4f J)\n\n",
              res.rebuild.bytes_rebuilt / (1024.0 * 1024.0),
              res.rebuild.chunks,
              res.rebuild.end_time - res.rebuild.start_time,
              res.rebuild.xor_instructions, res.rebuild.xor_joules);

  // JSON lines: header pins the schema and rig, one line per phase, one for
  // the rebuild window itself.
  bench::JsonLine()
      .Str("schema", "ecodb.faults.v1").Num("disks", "%d", kDisks)
      .Str("raid", "raid5").Num("scan_bytes", "%" PRIu64, kScanBytes)
      .Num("seed", "%" PRIu64, kFaultSeed).Str("platform", "dl785").Print();
  PrintPhaseJson(res.healthy);
  PrintPhaseJson(res.degraded);
  bench::JsonLine()
      .Str("bench", "fault_sweep").Str("phase", "rebuilding")
      .Num("rebuild_bytes", "%" PRIu64, res.rebuild.bytes_rebuilt)
      .Num("chunks", "%" PRIu64, res.rebuild.chunks)
      .Num("sim_seconds", "%.6f",
           res.rebuild.end_time - res.rebuild.start_time)
      .Num("xor_instructions", "%.1f", res.rebuild.xor_instructions)
      .Num("xor_joules", "%.6f", res.rebuild.xor_joules)
      .Num("rate_bytes_per_s", "%.0f", kRebuildRate).Print();
  PrintPhaseJson(res.rebuilt);

  // --- Shape checks ------------------------------------------------------
  // Degraded reads fold (n-1) survivor shares per reconstructed request;
  // the dead member's share of the scan is kScanBytes / n.
  const storage::ArraySpec spec = SweepArraySpec();
  const double share = static_cast<double>(kScanBytes) / kDisks;
  const double expect_instr =
      spec.xor_instructions_per_byte * (kDisks - 1) * share;
  bench::ShapeCheck check(
      "degraded > healthy; XOR matches (n-1) x share model; retries "
      "charged; rebuild restores health; seed replays bit-exactly");
  check.Expect(res.degraded.joules > res.healthy.joules &&
                   res.degraded.faults.degraded_reads > 0,
               "degraded not costlier");
  check.Expect(
      std::abs(res.degraded.faults.reconstruct_instructions - expect_instr) <
          1e-6 * expect_instr,
      "xor instructions %.1f vs model %.1f",
      res.degraded.faults.reconstruct_instructions, expect_instr);
  check.Expect(res.healthy.faults.transient_errors > 0 &&
                   res.healthy.faults.retry_joules > 0.0,
               "retries free or absent");
  check.Expect(res.rebuilt.faults.degraded_reads == 0 &&
                   res.rebuild.bytes_rebuilt == kRebuildBytes,
               "rebuild did not restore");

  // Determinism: the same seed + plan replays the whole sweep bit-exactly.
  const SweepResult replay = RunSweep();
  check.Expect(
      replay.healthy.joules == res.healthy.joules &&
      replay.degraded.joules == res.degraded.joules &&
      replay.rebuilt.joules == res.rebuilt.joules &&
      replay.degraded.faults.reconstruct_joules ==
          res.degraded.faults.reconstruct_joules &&
      replay.healthy.faults.transient_errors ==
          res.healthy.faults.transient_errors &&
      replay.rebuild.xor_joules == res.rebuild.xor_joules,
      "replay diverged");

  std::printf("\n");
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
