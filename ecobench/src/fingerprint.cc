#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace ecobench {

namespace {

constexpr double kSumTolerance = 1e-9;

uint64_t HashBytes(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

void FingerprintBuilder::Int(const std::string& column, int64_t value) {
  row_hash_ += Mix(HashBytes(column) ^ static_cast<uint64_t>(value));
}

void FingerprintBuilder::Str(const std::string& column,
                             const std::string& value) {
  row_hash_ += Mix(HashBytes(column) ^ Mix(HashBytes(value)));
}

void FingerprintBuilder::Dbl(const std::string& column, double value) {
  fp_.sums[column] += value;
}

void FingerprintBuilder::EndRow() {
  fp_.cell_hash += Mix(row_hash_);
  row_hash_ = 0;
  ++fp_.rows;
}

ResultFingerprint Fingerprint(const ecodb::exec::QueryResultSet& rows,
                              const std::vector<std::string>& columns,
                              const std::string& order_column,
                              bool descending) {
  using ecodb::catalog::DataType;
  FingerprintBuilder builder;
  std::vector<int> index;
  bool complete = true;
  for (const std::string& name : columns) {
    index.push_back(rows.schema.FindColumn(name));
    if (index.back() < 0) complete = false;
  }
  const int order_idx =
      order_column.empty() ? -1 : rows.schema.FindColumn(order_column);
  bool ordered = complete && (order_column.empty() || order_idx >= 0);
  bool have_prev = false;
  double prev = 0.0;
  for (const ecodb::exec::RecordBatch& batch : rows.batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < columns.size(); ++c) {
        if (index[c] < 0) continue;
        const ecodb::storage::ColumnData& col =
            batch.column(static_cast<size_t>(index[c]));
        switch (col.type) {
          case DataType::kDouble:
            builder.Dbl(columns[c], col.f64[r]);
            break;
          case DataType::kString:
            builder.Str(columns[c], col.str[r]);
            break;
          default:
            builder.Int(columns[c], col.i64[r]);
            break;
        }
      }
      builder.EndRow();
      if (order_idx >= 0) {
        const double v =
            batch.GetValue(r, static_cast<size_t>(order_idx)).AsDouble();
        if (have_prev && (descending ? v > prev : v < prev)) ordered = false;
        prev = v;
        have_prev = true;
      }
    }
  }
  ResultFingerprint fp = builder.Finish();
  fp.ordered = ordered;
  return fp;
}

bool SameResult(const ResultFingerprint& a, const ResultFingerprint& b) {
  if (a.rows != b.rows || a.cell_hash != b.cell_hash ||
      a.ordered != b.ordered) {
    return false;
  }
  // A double column with no rows has no entry on one side: treat as 0.
  auto sum_of = [](const ResultFingerprint& fp, const std::string& name) {
    auto it = fp.sums.find(name);
    return it == fp.sums.end() ? 0.0 : it->second;
  };
  for (const auto* fp : {&a, &b}) {
    for (const auto& [name, unused] : fp->sums) {
      const double x = sum_of(a, name);
      const double y = sum_of(b, name);
      if (std::abs(x - y) > kSumTolerance * std::max(1.0, std::abs(y))) {
        return false;
      }
    }
  }
  return true;
}

std::string FingerprintKey(const ResultFingerprint& fp) {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                "{\"rows\":%" PRIu64 ",\"hash\":\"%016" PRIx64 "\",\"sums\":{",
                fp.rows, fp.cell_hash);
  out += buf;
  bool first = true;
  for (const auto& [name, sum] : fp.sums) {
    std::snprintf(buf, sizeof(buf), "%.17g", sum);
    out += first ? "\"" : ",\"";
    out += name;
    out += "\":";
    out += buf;
    first = false;
  }
  out += fp.ordered ? "},\"ordered\":true}" : "},\"ordered\":false}";
  return out;
}

}  // namespace ecobench
