// Columnar record batches: the unit of data flow between operators.
//
// EcoDB executes vectorized: operators pull RecordBatches (a schema plus
// typed column lanes) of up to kDefaultBatchRows rows. Column lanes reuse
// storage::ColumnData so table storage feeds scans without conversion.

#ifndef ECODB_EXEC_BATCH_H_
#define ECODB_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/table_storage.h"
#include "util/status.h"

namespace ecodb::exec {

using storage::ColumnData;

constexpr size_t kDefaultBatchRows = 4096;

/// A scalar runtime value (literals, aggregate results, row cells).
struct Value {
  catalog::DataType type = catalog::DataType::kInt64;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string str;

  static Value Int64(int64_t v) {
    Value out;
    out.type = catalog::DataType::kInt64;
    out.i64 = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type = catalog::DataType::kDouble;
    out.f64 = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type = catalog::DataType::kString;
    out.str = std::move(v);
    return out;
  }
  static Value Date(int64_t days) {
    Value out;
    out.type = catalog::DataType::kDate;
    out.i64 = days;
    return out;
  }

  /// Numeric view (int64/date promoted to double).
  double AsDouble() const {
    return type == catalog::DataType::kDouble ? f64
                                              : static_cast<double>(i64);
  }

  bool operator==(const Value&) const = default;
};

/// Calls `fn(src_lane, dst_lane)` with the live lanes of two columns of
/// `src`'s type: i64 (int64 and date), f64 or str.
template <typename Src, typename Fn>
void VisitLanes(Src& src, ColumnData* dst, Fn&& fn) {
  switch (src.type) {
    case catalog::DataType::kInt64:
    case catalog::DataType::kDate:
      fn(src.i64, dst->i64);
      break;
    case catalog::DataType::kDouble:
      fn(src.f64, dst->f64);
      break;
    case catalog::DataType::kString:
      fn(src.str, dst->str);
      break;
  }
}

/// Calls `fn(lane)` with `column`'s live lane.
template <typename Fn>
void VisitLane(ColumnData& column, Fn&& fn) {
  VisitLanes(column, &column, [&](auto& lane, auto&) { fn(lane); });
}

/// Batch of rows in columnar form.
class RecordBatch {
 public:
  RecordBatch() = default;
  explicit RecordBatch(catalog::Schema schema);

  const catalog::Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  ColumnData& column(size_t i) { return columns_[i]; }
  const ColumnData& column(size_t i) const { return columns_[i]; }

  /// Row cell as a Value (convenience for tests and result rendering).
  Value GetValue(size_t row, size_t col) const;

  /// Appends one row of values; types must match the schema.
  Status AppendRow(const std::vector<Value>& row);

  /// Sets the row count after bulk-filling the lanes directly.
  Status SealRows(size_t rows);

  /// Copies row `row` of `src` onto the end of this batch (schemas must
  /// be column-compatible by position).
  void AppendRowFrom(const RecordBatch& src, size_t row);

  /// Keeps only rows whose mask entry is non-zero.
  void FilterInPlace(const std::vector<uint8_t>& mask);

  bool empty() const { return num_rows_ == 0; }

 private:
  catalog::Schema schema_;
  std::vector<ColumnData> columns_;
  size_t num_rows_ = 0;
};

/// Materialized query result: all batches concatenated.
struct QueryResultSet {
  catalog::Schema schema;
  std::vector<RecordBatch> batches;

  size_t TotalRows() const {
    size_t n = 0;
    for (const auto& b : batches) n += b.num_rows();
    return n;
  }
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_BATCH_H_
