// ecobench: runs one workload and prints one JSON object on its last line
// of standard output. ecobench/run.py builds this program, checks the result
// fingerprints against ecobench/expected.json and prints the benchmark's
// result line.
//
//   ecobench --workload join_mix|scan_mix|serve_mix --seed N --seconds S
//            --trace 0|1 [--spans PATH] [--corrupt-oracle 1]

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace ecobench {
namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

std::string Number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ",";
    out += '"';
    out += Escape(name);
    out += "\":";
    out += Number(value);
  }
  return out + "}";
}

void Print(const Options& options, const RunResult& r) {
  std::string checks = "{";
  for (const auto& [name, ok] : r.checks) {
    if (checks.size() > 1) checks += ",";
    checks += '"';
    checks += name;
    checks += ok ? "\":true" : "\":false";
  }
  checks += "}";
  std::string fps = "[";
  for (const auto& [key, seen] : r.fingerprints) {
    for (const auto& [fp, entry] : seen) {
      if (fps.size() > 1) fps += ",";
      fps += "{\"key\":\"";
      fps += Escape(key);
      fps += "\",\"fp\":";
      fps += fp;
      fps += ",\"count\":";
      fps += std::to_string(entry.count);
      fps += entry.matches_reference ? ",\"reference\":true}"
                                     : ",\"reference\":false}";
    }
  }
  fps += "]";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%s,"
      "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"refused\":%" PRIu64
      ",\"metrics\":%s,"
      "\"details\":%s,\"checks\":%s,\"fingerprints\":%s,"
      "\"build\":{\"type\":\"%s\",\"compiler\":\"%s\"}}\n",
      options.workload.c_str(), options.seed, options.trace ? "true" : "false",
      r.attempted, r.failed, r.refused, Object(r.metrics).c_str(),
      Object(r.details).c_str(), checks.c_str(), fps.c_str(),
      ECOBENCH_BUILD_TYPE, ECOBENCH_COMPILER);
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--corrupt-oracle") {
      options.corrupt_oracle = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "ecobench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "ecobench: --seconds must be positive\n");
    return 2;
  }
  ecodb::StatusOr<RunResult> result =
      options.workload == "join_mix"    ? RunJoinMix(options)
      : options.workload == "scan_mix"  ? RunScanMix(options)
      : options.workload == "serve_mix" ? RunServeMix(options)
                                        : ecodb::StatusOr<RunResult>(
                                              ecodb::Status::InvalidArgument(
                                                  "unknown workload"));
  if (!result.ok()) {
    std::fprintf(stderr, "ecobench: %s: %s\n", options.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  Print(options, *result);
  return 0;
}

}  // namespace
}  // namespace ecobench

int main(int argc, char** argv) { return ecobench::Main(argc, argv); }
