// The TPC-H-like "throughput test" workload of Figure 1.
//
// "The throughput test issues a mixture of TPC-H queries simultaneously
// from multiple clients to the system." We reproduce the mixture's
// character with three query shapes over LINEITEM/ORDERS:
//   * a pricing-summary aggregate (Q1-flavored): scan + filter + group-by
//   * a revenue-forecast filter-sum (Q6-flavored): scan + range filters
//   * a customer-order join (Q3-flavored): LINEITEM >< ORDERS + aggregate
// All three are scan-dominated, so at low disk counts the array is the
// bottleneck; at high counts the CPU is — the crossover drives Figure 1.
//
// The shapes are QuerySpecs (tpch/queries.h); both entry points below lower
// them through the planner's canonical join plan and BuildOperator.

#ifndef ECODB_TPCH_WORKLOAD_H_
#define ECODB_TPCH_WORKLOAD_H_

#include "sched/session.h"
#include "util/status.h"

namespace ecodb::tpch {

/// A serving-core query factory over the throughput-test mixture: maps a
/// trace request's query_class onto the three shapes and its param onto the
/// stream-style substitution parameters, plans it, and declares the plan's
/// leaf scans so the SessionManager can route them through the shared-scan
/// manager. Deterministic in the request, as the replay contract requires.
/// Both tables are analyzed once, here; if that fails (or a table is null)
/// every call returns the error.
sched::SessionManager::QueryFactory MakeServingFactory(
    const storage::TableStorage* orders,
    const storage::TableStorage* lineitem);

/// Outcome of running one or more streams back-to-back.
struct ThroughputResult {
  int queries_completed = 0;
  uint64_t rows_emitted = 0;
  double elapsed_seconds = 0.0;
  double joules = 0.0;
  /// Total device bytes transferred and CPU core-seconds consumed; used by
  /// the Figure 1 harness to calibrate device bandwidth volumetrically.
  uint64_t io_bytes = 0;
  double cpu_core_seconds = 0.0;
  /// Queries per hour per the TPC-H throughput metric shape.
  double QueriesPerHour() const {
    return elapsed_seconds > 0 ? 3600.0 * queries_completed / elapsed_seconds
                               : 0.0;
  }
  /// The paper's EE axis: work done per Joule.
  double EnergyEfficiency() const {
    return joules > 0 ? queries_completed / joules : 0.0;
  }
};

/// Runs `streams` full streams — the three shapes, with stream index s
/// rotating the parameters — sequentially on `platform` (the simulated
/// clock advances through each query; concurrency across clients shows up
/// as sustained device utilization). Returns InvalidArgument for options
/// ExecOptions::Validate rejects.
StatusOr<ThroughputResult> RunThroughputTest(
    power::HardwarePlatform* platform, const storage::TableStorage* orders,
    const storage::TableStorage* lineitem, int streams,
    const exec::ExecOptions& exec_options);

}  // namespace ecodb::tpch

#endif  // ECODB_TPCH_WORKLOAD_H_
