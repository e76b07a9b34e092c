// JouleSort-style benchmark (Section 2.3 cites JouleSort [RSR+07]: "a
// balanced energy-efficiency benchmark" measuring records sorted per Joule).
//
// The harness sorts a fixed record set through the engine's sort operators
// and reports records/Joule across two sweeps:
//
//  1. Configuration sweep (SortOp at dop 1): in-memory vs external sorts
//     spilling to SSD and to disk, and a low-power-CPU platform — the
//     memory/I/O/platform balance JouleSort is about.
//  2. Dop sweep (the same SortOp at dop 1/2/4/8): in-memory and spilling. Results and modeled charges are dop-invariant; only the
//     CPU critical path — and with it the energy window — shrinks
//     (race-to-idle). Emitted as schema-versioned JSON lines for plotting
//     (see EXPERIMENTS.md "JouleSort methodology").

#include <cinttypes>
#include <memory>
#include <string>
#include <utility>

#include "bench_util.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "exec/topk.h"
#include "optimizer/planner.h"
#include "power/platform.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "util/random.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

constexpr int kRecords = 200000;

Schema RecordSchema() {
  // JouleSort records: 10-byte key, 90-byte payload (modeled widths).
  return Schema({Column{"key", DataType::kInt64, 8},
                 Column{"payload", DataType::kString, 90}});
}

std::vector<storage::ColumnData> MakeRecords() {
  std::vector<storage::ColumnData> cols(2);
  cols[0].type = DataType::kInt64;
  cols[1].type = DataType::kString;
  Rng rng(1977);
  for (int i = 0; i < kRecords; ++i) {
    cols[0].i64.push_back(static_cast<int64_t>(rng.Next() >> 1));
    cols[1].str.push_back(rng.AlphaString(12));  // stand-in payload
  }
  return cols;
}

struct SortOutcome {
  double seconds = 0;
  double joules = 0;
  double cpu_core_seconds = 0;
  double cpu_elapsed_seconds = 0;
  int active_cores = 1;
  uint64_t io_bytes = 0;
  bool spilled = false;
  bool sorted = true;
  double RecordsPerJoule() const {
    return joules > 0 ? kRecords / joules : 0;
  }
};

/// Sorts `records` at the given dop through SortOp behind a morsel scan.
/// Rows and modeled charges are dop-invariant — the engine's determinism
/// contract (DESIGN.md §7).
SortOutcome RunSort(power::HardwarePlatform* platform,
                    storage::StorageDevice* table_device,
                    storage::StorageDevice* spill_device,
                    uint64_t memory_budget,
                    const std::vector<storage::ColumnData>& records,
                    int dop) {
  storage::TableStorage table(1, RecordSchema(),
                              storage::TableLayout::kColumn, table_device);
  if (!table.Append(records).ok()) std::exit(1);

  exec::ExecOptions options;
  options.dop = dop;
  const std::vector<exec::SortKey> keys = {{"key", true}};
  exec::SortOp sort(std::make_unique<exec::TableScanOp>(&table), keys,
                    memory_budget, spill_device);
  const bench::PlanRun run = bench::RunPlan(platform, &sort, options);
  const exec::QueryStats& stats = run.stats;

  SortOutcome out;
  out.seconds = stats.elapsed_seconds;
  out.joules = stats.Joules();
  out.cpu_core_seconds = stats.cpu_seconds;
  out.cpu_elapsed_seconds = stats.cpu_elapsed_seconds;
  out.active_cores = stats.active_cores;
  out.io_bytes = stats.io_bytes;
  out.spilled = sort.spilled();
  int64_t prev = INT64_MIN;
  size_t rows = 0;
  for (const auto& batch : run.result.batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t k = batch.column(0).i64[r];
      if (k < prev) out.sorted = false;
      prev = k;
      ++rows;
    }
  }
  if (rows != static_cast<size_t>(kRecords)) out.sorted = false;
  return out;
}

struct TopKOutcome {
  double seconds = 0;
  double joules = 0;
  double cpu_core_seconds = 0;
  double cpu_elapsed_seconds = 0;
  double instructions = 0;
  uint64_t io_bytes = 0;
  uint64_t spill_bytes = 0;
  std::vector<std::pair<int64_t, std::string>> rows;
  bool sorted = true;
};

/// ORDER BY key LIMIT k through either the fused TopKOp or the unfused
/// SortOp + LimitOp pair, behind a morsel scan.
/// Both emit byte-identical rows; the fused path does O(n log k) work and
/// only spills its k-row candidate set.
TopKOutcome RunTopK(power::HardwarePlatform* platform, uint64_t memory_budget,
                    const std::vector<storage::ColumnData>& records, int dop,
                    size_t k, bool fused) {
  storage::SsdDevice ssd("data-ssd", power::SsdSpec{}, platform->meter());
  storage::TableStorage table(1, RecordSchema(),
                              storage::TableLayout::kColumn, &ssd);
  if (!table.Append(records).ok()) std::exit(1);
  const uint64_t scan_bytes = table.ScanBytes({0, 1});

  exec::ExecOptions options;
  options.dop = dop;
  const std::vector<exec::SortKey> keys = {{"key", true}};
  exec::OperatorPtr root;
  if (fused) {
    root = std::make_unique<exec::TopKOp>(
        std::make_unique<exec::TableScanOp>(&table), keys, k, memory_budget,
        &ssd);
  } else {
    root = std::make_unique<exec::LimitOp>(
        std::make_unique<exec::SortOp>(
            std::make_unique<exec::TableScanOp>(&table), keys, memory_budget,
            &ssd),
        k);
  }
  const bench::PlanRun run = bench::RunPlan(platform, root.get(), options);
  const exec::QueryStats& stats = run.stats;

  TopKOutcome out;
  out.seconds = stats.elapsed_seconds;
  out.joules = stats.Joules();
  out.cpu_core_seconds = stats.cpu_seconds;
  out.cpu_elapsed_seconds = stats.cpu_elapsed_seconds;
  out.instructions = stats.cpu_instructions;
  out.io_bytes = stats.io_bytes;
  out.spill_bytes =
      stats.io_bytes > scan_bytes ? stats.io_bytes - scan_bytes : 0;
  int64_t prev = INT64_MIN;
  for (const auto& batch : run.result.batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t key = batch.column(0).i64[r];
      if (key < prev) out.sorted = false;
      prev = key;
      out.rows.emplace_back(key, batch.column(1).str[r]);
    }
  }
  if (out.rows.size() != std::min<size_t>(k, kRecords)) out.sorted = false;
  return out;
}

}  // namespace

int Main() {
  bench::Banner(
      "JouleSort-style: records sorted per Joule across configurations",
      "200k records (10 B key + 90 B payload modeled); in-memory vs "
      "external sorts; server vs low-power platform; dop sweep");

  const auto records = MakeRecords();
  bench::Table table({"configuration", "time (s)", "energy (J)", "spilled",
                      "records/J"});

  struct Config {
    const char* name;
    bool low_power;
    bool spill_to_hdd;
    uint64_t budget;
  };
  const uint64_t full = UINT64_MAX;
  const uint64_t tight = 2ULL << 20;  // forces the external path
  const Config configs[] = {
      {"server, in-memory", false, false, full},
      {"server, external on SSD", false, false, tight},
      {"server, external on disk", false, true, tight},
      {"low-power node, in-memory", true, false, full},
  };

  std::vector<SortOutcome> outcomes;
  for (const Config& c : configs) {
    auto platform = c.low_power ? power::MakeProportionalPlatform()
                                : power::MakeDl785Platform();
    storage::SsdDevice ssd("data-ssd", power::SsdSpec{}, platform->meter());
    storage::HddDevice hdd("spill-hdd", power::HddSpec{}, platform->meter());
    storage::StorageDevice* spill = c.spill_to_hdd
                                        ? static_cast<storage::StorageDevice*>(&hdd)
                                        : &ssd;
    const SortOutcome out = RunSort(platform.get(), &ssd, spill, c.budget,
                                    records, /*dop=*/1);
    outcomes.push_back(out);
    table.AddRow({c.name, bench::Fmt("%.3f", out.seconds),
                  bench::Fmt("%.1f", out.joules),
                  out.spilled ? "yes" : "no",
                  bench::Fmt("%.0f", out.RecordsPerJoule())});
    if (!out.sorted) {
      std::printf("FAIL: output not sorted for %s\n", c.name);
      return 1;
    }
  }
  table.Print();

  // Shape: spilling costs energy; spilling to disk costs more than SSD;
  // the balanced low-power node wins records/Joule (JouleSort's finding).
  bench::ShapeCheck shape(
      "spill costs energy; disk > SSD; balanced low-power node wins "
      "records/J");
  shape.Expect(outcomes[1].joules > outcomes[0].joules,
               "spilling to SSD saved energy");
  shape.Expect(outcomes[2].joules > outcomes[1].joules,
               "spilling to disk cost no more than SSD");
  shape.Expect(
      outcomes[3].RecordsPerJoule() > outcomes[0].RecordsPerJoule(),
      "low-power node sorts fewer records/J than the server");
  const int shape_code = shape.Report();
  std::printf("\n");

  // --- Dop sweep: the external sort across dop, JSON lines ----------------
  // Header line pins the schema version and the workload; one line per
  // (dop, spill) point follows. Busy core-seconds stay constant across dop
  // while the CPU critical path shrinks — parallelism only narrows the
  // energy window (race-to-idle), it never changes the modeled work.
  // Dop candidates come from the platform's core count (the engine-level
  // ladder policy), not a hand-picked list.
  const std::vector<int> dops = [] {
    auto p = power::MakeDl785Platform();
    return optimizer::PlatformDopLadder(*p);
  }();
  bench::JsonLine()
      .Str("schema", "ecodb.joulesort.v1").Num("records", "%d", kRecords)
      .Num("key_bytes", "%d", 10).Num("payload_bytes", "%d", 90)
      .Str("platform", "dl785").Print();
  bench::ShapeCheck sweep(
      "busy core-seconds and io bytes constant; cpu critical path shrinks "
      "with dop",
      "dop sweep check");
  for (const bool spill : {false, true}) {
    SortOutcome base;
    for (const int dop : dops) {
      auto platform = power::MakeDl785Platform();
      storage::SsdDevice ssd("data-ssd", power::SsdSpec{}, platform->meter());
      const SortOutcome out =
          RunSort(platform.get(), &ssd, &ssd, spill ? tight : full, records,
                  dop);
      bench::JsonLine()
          .Str("bench", "joulesort").Num("dop", "%d", dop)
          .Str("spill", spill ? "ssd" : "none")
          .Num("sim_seconds", "%.6f", out.seconds)
          .Num("joules", "%.3f", out.joules)
          .Num("records_per_joule", "%.1f", out.RecordsPerJoule())
          .Num("cpu_core_seconds", "%.6f", out.cpu_core_seconds)
          .Num("cpu_elapsed_seconds", "%.6f", out.cpu_elapsed_seconds)
          .Num("active_cores", "%d", out.active_cores)
          .Num("io_bytes", "%" PRIu64, out.io_bytes).Print();
      sweep.Expect(out.sorted, "dop %d: output not sorted", dop);
      sweep.Expect(out.spilled == spill, "dop %d: spill state wrong", dop);
      if (dop == 1) {
        base = out;
      } else {
        // Modeled work is dop-invariant; the critical path is not.
        sweep.Expect(std::abs(out.cpu_core_seconds - base.cpu_core_seconds) <=
                         1e-9 * base.cpu_core_seconds,
                     "dop %d: busy core-seconds moved", dop);
        sweep.Expect(out.io_bytes == base.io_bytes,
                     "dop %d: io bytes moved", dop);
        sweep.Expect(out.cpu_elapsed_seconds < base.cpu_elapsed_seconds,
                     "dop %d: cpu critical path did not shrink", dop);
      }
    }
  }
  const int sweep_code = sweep.Report();

  // --- Top-k sweep: ORDER BY + LIMIT, fused vs sort-then-limit ------------
  // For each k the same query runs fused (bounded-heap top-k) and unfused
  // (full external sort, then limit) across the platform dop ladder, under
  // a budget the full sort must spill. Small k is where the energy drops:
  // the fused path does O(n log k) comparisons and writes zero spill bytes
  // when its k-row candidate set fits the budget.
  std::printf("\n");
  bench::JsonLine()
      .Str("schema", "ecodb.topk.v1").Num("records", "%d", kRecords)
      .Str("platform", "dl785").Num("budget_bytes", "%" PRIu64, tight)
      .Num("ks", "[1,10,100,%d]", kRecords).Print();
  bench::ShapeCheck topk(
      "fused rows identical; charges dop-invariant; fewer instructions, zero "
      "spill bytes, fewer Joules for k <= 100",
      "top-k sweep check");
  for (const size_t k : {size_t{1}, size_t{10}, size_t{100},
                         size_t{kRecords}}) {
    TopKOutcome fused_base, unfused_base;
    for (const bool fused : {true, false}) {
      TopKOutcome base;
      for (const int dop : dops) {
        auto platform = power::MakeDl785Platform();
        const TopKOutcome out =
            RunTopK(platform.get(), tight, records, dop, k, fused);
        const char* path = fused ? "topk" : "sort+limit";
        bench::JsonLine()
            .Str("bench", "topk").Num("k", "%zu", k).Str("path", path)
            .Num("dop", "%d", dop).Num("sim_seconds", "%.6f", out.seconds)
            .Num("joules", "%.3f", out.joules)
            .Num("instructions", "%.1f", out.instructions)
            .Num("cpu_core_seconds", "%.6f", out.cpu_core_seconds)
            .Num("cpu_elapsed_seconds", "%.6f", out.cpu_elapsed_seconds)
            .Num("io_bytes", "%" PRIu64, out.io_bytes)
            .Num("spill_bytes", "%" PRIu64, out.spill_bytes).Print();
        topk.Expect(out.sorted, "k %zu %s dop %d: output not sorted", k,
                    path, dop);
        if (dop == dops.front()) {
          base = out;
        } else {
          // Determinism contract: rows and modeled charges are
          // dop-invariant; only the critical path may shrink.
          topk.Expect(out.rows == base.rows &&
                          out.instructions == base.instructions &&
                          out.io_bytes == base.io_bytes &&
                          std::abs(out.cpu_core_seconds -
                                   base.cpu_core_seconds) <=
                              1e-9 * base.cpu_core_seconds,
                      "k %zu %s dop %d: rows or charges moved", k, path,
                      dop);
        }
      }
      (fused ? fused_base : unfused_base) = base;
    }
    // Plan equivalence: the fused path is just a cheaper physical plan.
    topk.Expect(fused_base.rows == unfused_base.rows,
                "k %zu: fused rows differ", k);
    if (k <= 100) {
      topk.Expect(fused_base.instructions < unfused_base.instructions,
                  "k %zu: fused runs no fewer instructions", k);
      topk.Expect(
          fused_base.spill_bytes == 0 && unfused_base.spill_bytes != 0,
          "k %zu: fused %" PRIu64 " vs unfused %" PRIu64 " spill bytes", k,
          fused_base.spill_bytes, unfused_base.spill_bytes);
      topk.Expect(fused_base.joules < unfused_base.joules,
                  "k %zu: fused spends no fewer Joules", k);
    }
  }
  const int topk_code = topk.Report();
  return shape_code | sweep_code | topk_code;
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
