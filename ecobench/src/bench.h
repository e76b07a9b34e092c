// EcoDB end-to-end benchmark: shared pieces of the three workloads.
//
// Every workload drives EcoDB through its public facade (core/ecodb.h) and
// reports two clocks: the modeled clock (simulated seconds and Joules, a
// pure function of the seed) and the host clock (wall time of the engine's
// C++). Host times are speed-corrected against a reference kernel that
// lives here, outside the engine, so no engine change can move it.

#ifndef ECOBENCH_BENCH_H_
#define ECOBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "util/status.h"

namespace ecobench {

/// Command-line knobs.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // JSON lines; empty = not written
  /// Self-test: flip one reference answer, so the run must fail.
  bool corrupt_oracle = false;
};

/// The TPC-H data seed for --seed: every table follows the workload seed.
uint64_t DataSeed(uint64_t seed);

/// Host wall clock in microseconds since an arbitrary epoch.
double NowUs();

/// The reference kernel's nominal time: about its time on the 4-core Xeon VM
/// the benchmark was defined on. Corrected host times are in units of it.
constexpr double kKernelNominalUs = 5000.0;

/// The reference kernel: a streaming sum over a fixed 32 MiB array. The
/// engine's scans, hash tables and sorts at these table sizes are bound by
/// the memory system the host shares with its neighbours, and this pass
/// slows down with it; cache-resident compute kernels tracked only part of
/// those slowdowns. Its input never depends on the workload or seed.
class RefKernel {
 public:
  RefKernel();
  /// Runs the kernel once; returns its host time in microseconds.
  double RunUs();

 private:
  std::vector<uint64_t> stream_;
  uint64_t sink_ = 0;
};

/// Pairs host timings with nearby kernel timings. Sample() is called before
/// each timed operation and returns the speed-correction factor for it:
/// kKernelNominalUs / median of the last three kernel times, the kernel
/// running on every eighth call, or on every call when `fresh` is set.
class SpeedCorrector {
 public:
  SpeedCorrector();
  double Sample(bool fresh = false);
  const std::vector<double>& kernel_us() const { return all_us_; }

 private:
  RefKernel kernel_;
  uint64_t calls_ = 0;
  std::vector<double> window_;
  std::vector<double> all_us_;
};

/// One host-clock sample: raw wall time and the correction factor paired
/// with it. corrected = raw * factor.
struct HostSample {
  double raw_ms = 0.0;
  double factor = 1.0;
  double corrected_ms() const { return raw_ms * factor; }
};

/// `steps` rates from `start`, each `ratio` times the one before: the fixed
/// ladder slo_capacity_qps is measured on.
std::vector<double> RateLadder(double start, double ratio, int steps);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// (Q3 - Q1) / median, the within-run spread.
double RelativeIqr(std::vector<double> values);

/// In-memory span recorder. Spans carry name, start, end, parent span and
/// request id; they are written as JSON lines when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Opens a span; returns its id (-1 when tracing is off).
  int64_t Begin(const char* name, int64_t parent, int64_t request);
  /// Closes span `id`; returns its duration in microseconds.
  double End(int64_t id);
  /// Records an already-measured interval.
  int64_t Add(const char* name, int64_t parent, int64_t request,
              double start_us, double end_us);
  ecodb::Status WriteJsonl(const std::string& path,
                           const std::string& header) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    int64_t request;
    double start_us;
    double end_us;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// 64-bit finalizer (murmur3 fmix64).
uint64_t Mix(uint64_t x);

/// Order-insensitive summary of a result set over a declared column list:
/// row count, a commutative hash of every integer/date/string cell (keyed
/// by column name, so column order does not matter) and per double-column
/// sums, compared with a relative tolerance because a reordered float
/// summation may differ in the last bits.
struct ResultFingerprint {
  uint64_t rows = 0;
  uint64_t cell_hash = 0;
  std::map<std::string, double> sums;  // by column name
  /// False when an ORDER BY output is not sorted on its first key, or a
  /// declared column is missing from the output.
  bool ordered = true;
};

/// Row-at-a-time fingerprint construction, shared by the engine's results
/// and the reference answers so both hash identically.
class FingerprintBuilder {
 public:
  void Int(const std::string& column, int64_t value);
  void Str(const std::string& column, const std::string& value);
  void Dbl(const std::string& column, double value);
  void EndRow();
  ResultFingerprint Finish() { return fp_; }

 private:
  ResultFingerprint fp_;
  uint64_t row_hash_ = 0;
};

/// Fingerprint of an engine result over `columns`, checking that the rows
/// are sorted on `order_column` (when not empty).
ResultFingerprint Fingerprint(const ecodb::exec::QueryResultSet& rows,
                              const std::vector<std::string>& columns,
                              const std::string& order_column,
                              bool descending);

/// Equal row counts, hashes and order flags; sums within 1e-9 relative.
bool SameResult(const ResultFingerprint& a, const ResultFingerprint& b);

/// Everything one run reports. run.py compares `fingerprints` against the
/// committed expected values and adds mismatches to `failed`.
struct RunResult {
  std::map<std::string, double> metrics;  // name -> value
  std::map<std::string, double> details;  // printed, not gated
  std::map<std::string, bool> checks;     // all must hold
  /// Distinct query key -> fingerprints observed (FingerprintKey), with
  /// execution counts and whether they matched the reference answer.
  struct Seen {
    uint64_t count = 0;
    bool matches_reference = true;
  };
  std::map<std::string, std::map<std::string, Seen>> fingerprints;
  uint64_t attempted = 0;
  /// Errors and results that differ from the reference answer: the run is
  /// wrong when this is not 0.
  uint64_t failed = 0;
  /// Requests the serving core refused (sheds, evictions, deadline kills):
  /// failed requests, but not wrong output.
  uint64_t refused = 0;
};

/// Serializes a fingerprint as a stable string (hex hash, %.17g sums).
std::string FingerprintKey(const ResultFingerprint& fp);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Times complete set-ups spread over the run, so that slow and fast
/// phases of a shared host weigh in alike: Run() before the loop for the
/// databases the loop needs, Tick() from the loop, which times another
/// set-up once seconds / reps have passed since the last. Each set-up is
/// corrected by the kernel run just before and just after it. `once` runs
/// one complete set-up and fills its phase timings in seconds.
class SetupTimer {
 public:
  using Once = std::function<ecodb::Status(std::map<std::string, double>*)>;
  SetupTimer(SpeedCorrector* corrector, Once once, int reps, double seconds);
  ecodb::Status Run();
  ecodb::Status Tick();
  /// Tops up to `reps` set-ups and reports the speed-corrected medians of
  /// setup_s and the set-up layers.
  ecodb::Status Report(RunResult* result);

 private:
  static constexpr const char* kSetupNames[] = {
      "setup_s", "tpch.generate_s", "storage.load_s",
      "storage.clone_compress_s", "storage.index_s"};
  SpeedCorrector* corrector_;
  Once once_;
  int reps_;
  double spacing_us_;
  double last_us_ = 0.0;
  std::map<std::string, std::vector<double>> values_;
};

/// Host-clock metrics over `samples` plus the kernel's figures:
/// host_ms_p50/p99, host_qps and their raw counterparts in `details`.
void ReportHost(const std::vector<HostSample>& samples,
                const SpeedCorrector& corrector, RunResult* result);

ecodb::StatusOr<RunResult> RunJoinMix(const Options& options);
ecodb::StatusOr<RunResult> RunScanMix(const Options& options);
ecodb::StatusOr<RunResult> RunServeMix(const Options& options);

}  // namespace ecobench

#endif  // ECOBENCH_BENCH_H_
