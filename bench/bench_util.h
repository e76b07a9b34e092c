// Shared helpers for the experiment harnesses: console tables, JSON lines,
// the shape-check verdict, and running one plan to completion.

#ifndef ECODB_BENCH_BENCH_UTIL_H_
#define ECODB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"

namespace ecodb::bench {

/// Prints a titled experiment banner.
inline void Banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("\n");
}

/// Fixed-width table printer: header row then data rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    for (size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s  ", std::string(widths[c], '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// One JSON object printed on one line. Fields appear in call order; each
/// numeric field keeps its own printf format, so a harness controls its
/// digits exactly. String values are quoted and escaped here.
class JsonLine {
 public:
  /// `"key":"value"`.
  JsonLine& Str(const char* key, std::string_view value) {
    Key(key);
    fields_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') fields_ += '\\';
      fields_ += c;
    }
    fields_ += '"';
    return *this;
  }

  /// `"key":"<value>"`, with `value` rendered by printf format `fmt`.
  template <typename T>
  JsonLine& Str(const char* key, const char* fmt, T value) {
    return Str(key, Format(fmt, value));
  }

  /// `"key":<value>`, with `value` rendered by printf format `fmt` (for
  /// example "%.6f", "%zu" or "%" PRIu64).
  template <typename T>
  JsonLine& Num(const char* key, const char* fmt, T value) {
    Key(key);
    fields_ += Format(fmt, value);
    return *this;
  }

  /// The fields without the enclosing braces (for a document that goes on
  /// after them, such as a baseline file's item array).
  const std::string& fields() const { return fields_; }
  std::string str() const { return "{" + fields_ + "}"; }
  void Print() const { std::printf("{%s}\n", fields_.c_str()); }

 private:
  template <typename T>
  static std::string Format(const char* fmt, T value) {
    const int n = std::snprintf(nullptr, 0, fmt, value);
    std::string out(static_cast<size_t>(n) + 1, '\0');
    std::snprintf(out.data(), out.size(), fmt, value);
    out.pop_back();  // the terminator snprintf wrote
    return out;
  }

  void Key(const char* key) {
    if (!fields_.empty()) fields_ += ',';
    fields_ += '"';
    fields_ += key;
    fields_ += "\":";
  }

  std::string fields_;
};

/// Collects a harness's named shape conditions and reports the verdict:
///   <label> (<claim>): PASS|FAIL
/// then one "  FAIL: <name>" line per failed condition, in the order they
/// were checked. Report() returns the process exit code ctest reads.
class ShapeCheck {
 public:
  explicit ShapeCheck(std::string claim, std::string label = "shape check")
      : claim_(std::move(claim)), label_(std::move(label)) {}

  /// Records one condition. `name` says what failed; it is a printf format
  /// when arguments follow.
  template <typename... Args>
  void Expect(bool ok, const char* name, Args... args) {
    if (ok) return;
    if constexpr (sizeof...(Args) == 0) {
      failures_.emplace_back(name);
    } else {
      char buf[256];
      std::snprintf(buf, sizeof(buf), name, args...);
      failures_.emplace_back(buf);
    }
  }

  int Report() const {
    const bool pass = failures_.empty();
    std::printf("%s (%s): %s\n", label_.c_str(), claim_.c_str(),
                pass ? "PASS" : "FAIL");
    for (const std::string& f : failures_) {
      std::printf("  FAIL: %s\n", f.c_str());
    }
    return pass ? 0 : 1;
  }

 private:
  std::string claim_;
  std::string label_;
  std::vector<std::string> failures_;
};

/// A finished plan: its rows and its bill.
struct PlanRun {
  exec::QueryResultSet result;
  exec::QueryStats stats;
};

/// Runs `plan` to completion in a fresh ExecContext on `platform`. A plan
/// that fails ends the harness with exit code 1.
inline PlanRun RunPlan(power::HardwarePlatform* platform, exec::Operator* plan,
                       const exec::ExecOptions& options = exec::ExecOptions{}) {
  exec::ExecContext ctx(platform, options);
  auto result = exec::CollectAll(plan, &ctx);
  if (!result.ok()) {
    std::fprintf(stderr, "plan failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return PlanRun{std::move(*result), ctx.Finish()};
}

}  // namespace ecodb::bench

#endif  // ECODB_BENCH_BENCH_UTIL_H_
