#include "exec/batch.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

namespace ecodb::exec {

RecordBatch::RecordBatch(catalog::Schema schema)
    : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) {
    columns_[i].type = schema_.column(i).type;
  }
}

Value RecordBatch::GetValue(size_t row, size_t col) const {
  assert(row < num_rows_ && col < columns_.size());
  const ColumnData& c = columns_[col];
  Value v;
  v.type = c.type;
  switch (c.type) {
    case catalog::DataType::kInt64:
    case catalog::DataType::kDate:
      v.i64 = c.i64[row];
      break;
    case catalog::DataType::kDouble:
      v.f64 = c.f64[row];
      break;
    case catalog::DataType::kString:
      v.str = c.str[row];
      break;
  }
  return v;
}

Status RecordBatch::AppendRow(const std::vector<Value>& row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type != columns_[i].type) {
      return Status::InvalidArgument("row type mismatch at column " +
                                     std::to_string(i));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    ColumnData& c = columns_[i];
    switch (c.type) {
      case catalog::DataType::kInt64:
      case catalog::DataType::kDate:
        c.i64.push_back(row[i].i64);
        break;
      case catalog::DataType::kDouble:
        c.f64.push_back(row[i].f64);
        break;
      case catalog::DataType::kString:
        c.str.push_back(row[i].str);
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

Status RecordBatch::SealRows(size_t rows) {
  for (const ColumnData& c : columns_) {
    if (c.size() != rows) {
      return Status::InvalidArgument("lane length does not match seal count");
    }
  }
  num_rows_ = rows;
  return Status::OK();
}

void RecordBatch::AppendRowFrom(const RecordBatch& src, size_t row) {
  assert(src.num_columns() == num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    VisitLanes(src.columns_[i], &columns_[i],
               [&](const auto& from, auto& to) { to.push_back(from[row]); });
  }
  ++num_rows_;
}

namespace {

/// Moves `lane`'s cells at rows `keep[0, n)` (ascending, each >= `at`)
/// to positions `at`, `at + 1`, ...
template <typename T>
void CompactLane(const size_t* keep, size_t n, size_t at,
                 std::vector<T>* lane) {
  T* cells = lane->data();
  for (size_t i = 0; i < n; ++i) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      cells[at + i] = cells[keep[i]];
    } else if (keep[i] != at + i) {
      cells[at + i] = std::move(cells[keep[i]]);
    }
  }
}

}  // namespace

void RecordBatch::FilterInPlace(const std::vector<uint8_t>& mask) {
  assert(mask.size() == num_rows_);
  // A chunk's kept rows become a selection vector, built without
  // branches; each lane then compacts the chunk in its own loop. Kept
  // rows only move toward the front, so a chunk never overwrites rows a
  // later chunk still reads.
  constexpr size_t kChunkRows = 1024;
  size_t keep[kChunkRows];
  size_t kept = 0;
  for (size_t first = 0; first < mask.size(); first += kChunkRows) {
    const size_t end = std::min(mask.size(), first + kChunkRows);
    size_t n = 0;
    for (size_t r = first; r < end; ++r) {
      keep[n] = r;
      n += mask[r] != 0;
    }
    for (ColumnData& c : columns_) {
      VisitLane(c, [&](auto& lane) { CompactLane(keep, n, kept, &lane); });
    }
    kept += n;
  }
  for (ColumnData& c : columns_) {
    VisitLane(c, [&](auto& lane) { lane.resize(kept); });
  }
  num_rows_ = kept;
}

}  // namespace ecodb::exec
