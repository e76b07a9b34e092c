#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "bench.h"

namespace ecobench {

namespace {

constexpr size_t kStreamEntries = size_t{1} << 22;  // 32 MiB of uint64
constexpr size_t kCorrectionWindow = 3;  // kernel runs per median
constexpr size_t kSampleEvery = 8;       // timings per kernel run

}  // namespace

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t DataSeed(uint64_t seed) { return 20090104 + 7919 * seed; }

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RefKernel::RefKernel() : stream_(kStreamEntries) {
  uint64_t state = 0x5EED5EED5EED5EEDULL;
  for (uint64_t& v : stream_) {
    state = Mix(state + 1);
    v = state;
  }
}

double RefKernel::RunUs() {
  const double start = NowUs();
  uint64_t sum = sink_;
  for (uint64_t v : stream_) sum += v;
  sink_ = sum;
  return NowUs() - start;
}

SpeedCorrector::SpeedCorrector() {
  for (size_t i = 0; i < kCorrectionWindow; ++i) {
    window_.push_back(kernel_.RunUs());
  }
}

double SpeedCorrector::Sample(bool fresh) {
  if (calls_++ % kSampleEvery == 0 || fresh) {
    const double us = kernel_.RunUs();
    all_us_.push_back(us);
    window_.push_back(us);
    if (window_.size() > kCorrectionWindow) window_.erase(window_.begin());
  }
  return kKernelNominalUs / Median(window_);
}

std::vector<double> RateLadder(double start, double ratio, int steps) {
  std::vector<double> ladder;
  for (int i = 0; i < steps; ++i) ladder.push_back(start * std::pow(ratio, i));
  return ladder;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double RelativeIqr(std::vector<double> values) {
  const double median = Median(values);
  if (median == 0.0) return 0.0;
  return (Percentile(values, 0.75) - Percentile(values, 0.25)) / median;
}

int64_t Tracer::Begin(const char* name, int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, parent, request, NowUs(), 0.0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::End(int64_t id) {
  if (id < 0) return 0.0;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_us = NowUs();
  return span.end_us - span.start_us;
}

int64_t Tracer::Add(const char* name, int64_t parent, int64_t request,
                    double start_us, double end_us) {
  if (!enabled_) return -1;
  spans_.push_back({name, parent, request, start_us, end_us});
  return static_cast<int64_t>(spans_.size()) - 1;
}

ecodb::Status Tracer::WriteJsonl(const std::string& path,
                                 const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return ecodb::Status::Internal("cannot write " + path);
  std::fprintf(f, "%s\n", header.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"parent\":%" PRId64
                 ",\"request\":%" PRId64 ",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, s.name, s.parent, s.request, s.start_us, s.end_us);
  }
  return std::fclose(f) == 0 ? ecodb::Status::OK()
                             : ecodb::Status::Internal("cannot close " + path);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

SetupTimer::SetupTimer(SpeedCorrector* corrector, Once once, int reps,
                       double seconds)
    : corrector_(corrector),
      once_(std::move(once)),
      reps_(reps),
      spacing_us_(seconds * 1e6 / reps) {}

ecodb::Status SetupTimer::Run() {
  const double before = corrector_->Sample(/*fresh=*/true);
  std::map<std::string, double> timing;
  ECODB_RETURN_IF_ERROR(once_(&timing));
  const double factor = (before + corrector_->Sample(/*fresh=*/true)) / 2.0;
  values_["raw_setup_s"].push_back(timing["setup_s"]);
  for (const char* name : kSetupNames) {
    values_[name].push_back(timing[name] * factor);
  }
  last_us_ = NowUs();
  return ecodb::Status::OK();
}

ecodb::Status SetupTimer::Tick() {
  if (static_cast<int>(values_["setup_s"].size()) >= reps_ ||
      NowUs() - last_us_ < spacing_us_) {
    return ecodb::Status::OK();
  }
  return Run();
}

ecodb::Status SetupTimer::Report(RunResult* result) {
  while (static_cast<int>(values_["setup_s"].size()) < reps_) {
    ECODB_RETURN_IF_ERROR(Run());
  }
  for (const char* name : kSetupNames) {
    result->metrics[name] = Median(values_[name]);
  }
  result->details["raw_setup_s"] = Median(values_["raw_setup_s"]);
  result->details["setup_reps"] = reps_;
  result->details["setup_spread"] = RelativeIqr(values_["setup_s"]);
  return ecodb::Status::OK();
}

void ReportHost(const std::vector<HostSample>& samples,
                const SpeedCorrector& corrector, RunResult* result) {
  std::vector<double> corrected;
  std::vector<double> raw;
  std::vector<double> factors;
  double corrected_sum_ms = 0.0;
  double raw_sum_ms = 0.0;
  for (const HostSample& s : samples) {
    corrected.push_back(s.corrected_ms());
    raw.push_back(s.raw_ms);
    factors.push_back(s.factor);
    corrected_sum_ms += s.corrected_ms();
    raw_sum_ms += s.raw_ms;
  }
  result->metrics["host_ms_p50"] = Percentile(corrected, 0.50);
  result->metrics["host_ms_p99"] = Percentile(corrected, 0.99);
  result->metrics["host_qps"] =
      corrected_sum_ms > 0 ? 1000.0 * samples.size() / corrected_sum_ms : 0.0;
  result->details["raw_host_ms_p50"] = Percentile(raw, 0.50);
  result->details["raw_host_ms_p99"] = Percentile(raw, 0.99);
  result->details["raw_host_qps"] =
      raw_sum_ms > 0 ? 1000.0 * samples.size() / raw_sum_ms : 0.0;
  result->details["kernel.factor_p50"] = Median(factors);
  result->details["kernel.nominal_us"] = kKernelNominalUs;
  result->details["kernel.us_p50"] = Median(corrector.kernel_us());
  result->details["kernel.spread"] = RelativeIqr(corrector.kernel_us());
  result->details["host_samples"] = static_cast<double>(samples.size());
}

}  // namespace ecobench
