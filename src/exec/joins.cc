#include "exec/joins.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>

namespace ecodb::exec {

using catalog::DataType;

catalog::Schema JoinedSchema(const catalog::Schema& left,
                             const catalog::Schema& right) {
  std::vector<catalog::Column> cols = left.columns();
  for (const catalog::Column& rc : right.columns()) {
    catalog::Column c = rc;
    if (left.FindColumn(c.name) >= 0) c.name += "_r";
    cols.push_back(std::move(c));
  }
  return catalog::Schema(std::move(cols));
}

namespace {

/// Largest row count a 32-bit row id can name.
constexpr uint64_t kMaxJoinRows = UINT32_MAX;

Status CheckRowIds(size_t rows) {
  if (rows > kMaxJoinRows) {
    return Status::ResourceExhausted("join side exceeds 2^32-1 rows");
  }
  return Status::OK();
}

/// Materializes everything a child produces into one batch, a lane at a
/// time. Polls the cancellation token per batch: a killed session stops
/// draining at a deterministic batch boundary with its partial charges
/// intact.
Status Drain(Operator* child, ExecContext* ctx, RecordBatch* out) {
  *out = RecordBatch(child->output_schema());
  size_t rows = 0;
  bool eos = false;
  while (true) {
    ECODB_RETURN_IF_ERROR(ctx->PollCancel());
    RecordBatch batch;
    ECODB_RETURN_IF_ERROR(child->Next(&batch, &eos));
    if (eos) return out->SealRows(rows);
    rows += batch.num_rows();
    ECODB_RETURN_IF_ERROR(CheckRowIds(rows));
    const auto n = static_cast<ptrdiff_t>(batch.num_rows());
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      VisitLanes(batch.column(c), &out->column(c), [&](auto& from, auto& to) {
        to.insert(to.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.begin() + n));
      });
    }
  }
}

/// Nominal resident bytes of a materialized batch.
uint64_t BatchBytes(const RecordBatch& batch) {
  uint64_t bytes = 0;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnData& lane = batch.column(c);
    bytes += lane.i64.size() * 8 + lane.f64.size() * 8;
    for (const std::string& s : lane.str) bytes += s.size() + 16;
  }
  return bytes;
}

/// Appends `src`'s cells at rows `idx[0, n)` onto the end of `dst`.
void GatherLane(const ColumnData& src, const uint32_t* idx, size_t n,
                ColumnData* dst) {
  VisitLanes(src, dst, [&](const auto& from, auto& to) {
    const size_t at = to.size();
    to.resize(at + n);
    for (size_t i = 0; i < n; ++i) to[at + i] = from[idx[i]];
  });
}

/// The joined rows of `pairs[begin, end)`: `left`'s columns at the left
/// rows, then `right`'s columns at the right rows.
Status EmitPairs(const catalog::Schema& schema, const RecordBatch& left,
                 const RecordBatch& right, const RowPairs& pairs,
                 size_t begin, size_t end, RecordBatch* out) {
  *out = RecordBatch(schema);
  const size_t n = end - begin;
  const size_t lcols = left.num_columns();
  for (size_t c = 0; c < lcols; ++c) {
    GatherLane(left.column(c), pairs.left.data() + begin, n,
               &out->column(c));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    GatherLane(right.column(c), pairs.right.data() + begin, n,
               &out->column(lcols + c));
  }
  return out->SealRows(n);
}

/// Bucket hash: murmur3's 64-bit finalizer, so dense or strided keys
/// spread over the low bits the bucket mask keeps.
uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// The inline tag of row `r` of a key lane: the int64 key itself, or the
/// string's hash.
uint64_t KeyTag(const ColumnData& keys, size_t r) {
  return keys.type == DataType::kString
             ? std::hash<std::string>{}(keys.str[r])
             : static_cast<uint64_t>(keys.i64[r]);
}

}  // namespace

// --------------------------------------------------------------------------
// JoinHashTable
// --------------------------------------------------------------------------

Status JoinHashTable::Build(const ColumnData& keys) {
  const size_t n = keys.size();
  ECODB_RETURN_IF_ERROR(CheckRowIds(n));
  size_t buckets = 1;
  while (buckets < 2 * n) buckets <<= 1;  // load factor <= 1/2
  mask_ = buckets - 1;
  // String hashes are computed once; an int64 key is its own tag.
  std::vector<uint64_t> string_tags;
  if (keys.type == DataType::kString) {
    string_tags.resize(n);
    for (size_t r = 0; r < n; ++r) string_tags[r] = KeyTag(keys, r);
  }
  auto tag_of = [&](size_t r) {
    return string_tags.empty() ? static_cast<uint64_t>(keys.i64[r])
                               : string_tags[r];
  };

  // Counting sort by bucket. offsets_[b] starts as the end of bucket b;
  // placing rows in ascending order at --offsets_[b] leaves it at the
  // bucket's start, with the bucket's rows in descending order.
  offsets_.assign(buckets + 1, 0);
  for (size_t r = 0; r < n; ++r) ++offsets_[MixHash(tag_of(r)) & mask_];
  for (size_t b = 1; b < buckets; ++b) offsets_[b] += offsets_[b - 1];
  offsets_[buckets] = static_cast<uint32_t>(n);
  tags_.assign(n + kSentinels, 0);
  rows_.assign(n + kSentinels, 0);
  for (size_t r = 0; r < n; ++r) {
    const uint64_t tag = tag_of(r);
    const uint32_t at = --offsets_[MixHash(tag) & mask_];
    tags_[at] = tag;
    rows_[at] = static_cast<uint32_t>(r);
  }
  return Status::OK();
}

void JoinHashTable::Probe(const ColumnData& probe, const ColumnData& build,
                          RowPairs* out) const {
  if (probe.type == DataType::kString) {
    ProbeLane<true>(probe, build, out);
  } else {
    ProbeLane<false>(probe, build, out);
  }
}

template <bool kStringKey>
void JoinHashTable::ProbeLane(const ColumnData& probe,
                              const ColumnData& build, RowPairs* out) const {
  const size_t n = kStringKey ? probe.str.size() : probe.i64.size();
  const uint32_t* offsets = offsets_.data();
  const uint64_t* tags = tags_.data();
  const uint32_t* rows = rows_.data();
  size_t count = out->left.size();
  out->left.resize(count + n + kSentinels);
  out->right.resize(count + n + kSentinels);
  uint32_t* left = out->left.data();
  uint32_t* right = out->right.data();
  // Hash a chunk of rows first, so the probe loop can prefetch its
  // buckets a few rows ahead; the chunk lives on the stack.
  constexpr size_t kChunkRows = 256;
  constexpr size_t kPrefetchRows = 8;
  uint64_t chunk_tags[kChunkRows];
  uint32_t chunk_buckets[kChunkRows];
  for (size_t first = 0; first < n; first += kChunkRows) {
    const size_t m = std::min(kChunkRows, n - first);
    for (size_t j = 0; j < m; ++j) {
      chunk_tags[j] = KeyTag(probe, first + j);
      chunk_buckets[j] = static_cast<uint32_t>(MixHash(chunk_tags[j]) & mask_);
    }
    for (size_t j = 0; j < m; ++j) {
      if (j + kPrefetchRows < m) {
        __builtin_prefetch(offsets + chunk_buckets[j + kPrefetchRows]);
      }
      const uint32_t r = static_cast<uint32_t>(first + j);
      const uint64_t tag = chunk_tags[j];
      uint32_t i = offsets[chunk_buckets[j]];
      const uint32_t end = offsets[chunk_buckets[j] + 1];
      const size_t need = count + kSentinels + (end - i);
      if (__builtin_expect(need > out->left.size(), 0)) {
        out->left.resize(std::max(need, 2 * out->left.size()));
        out->right.resize(out->left.size());
        left = out->left.data();
        right = out->right.data();
      }
      // Each entry is written out and kept only on a match. The first
      // two are unrolled (the sentinels keep their reads in bounds): most
      // buckets hold at most two rows, so the loop below seldom runs and
      // its branch seldom mispredicts.
      auto offer = [&](uint32_t at, bool in_bucket) {
        left[count] = r;
        right[count] = rows[at];
        bool match = in_bucket & (tags[at] == tag);
        if constexpr (kStringKey) {
          match = match && build.str[rows[at]] == probe.str[r];
        }
        count += match;
      };
      offer(i, i < end);
      offer(i + 1, i + 1 < end);
      for (i += 2; i < end; ++i) offer(i, true);
    }
  }
  out->left.resize(count);
  out->right.resize(count);
}

void JoinHashTable::Clear() {
  offsets_ = {};
  tags_ = {};
  rows_ = {};
}

// --------------------------------------------------------------------------
// HashJoinOp
// --------------------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::string left_key, std::string right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_name_(std::move(left_key)),
      right_key_name_(std::move(right_key)) {}

Status HashJoinOp::Open(ExecContext* ctx) {
  // ecodb-lint: coordinator-only
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());

  left_key_ = left_->output_schema().FindColumn(left_key_name_);
  right_key_ = right_->output_schema().FindColumn(right_key_name_);
  if (left_key_ < 0 || right_key_ < 0) {
    return Status::NotFound("join key column not found");
  }
  const DataType lt = left_->output_schema().column(left_key_).type;
  const DataType rt = right_->output_schema().column(right_key_).type;
  if ((lt == DataType::kString) != (rt == DataType::kString)) {
    return Status::InvalidArgument("join key type mismatch");
  }
  if (lt == DataType::kDouble || rt == DataType::kDouble) {
    return Status::InvalidArgument("hash join keys must be int64 or string");
  }

  // Build phase: materialize the right side and index it.
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &build_rows_));
  ECODB_RETURN_IF_ERROR(table_.Build(build_rows_.column(right_key_)));
  build_bytes_ = BatchBytes(build_rows_) +
                 build_rows_.num_rows() * 32;  // bucket + entry overhead
  ctx->ChargeInstructions(ctx->options().costs.hash_build_per_row *
                          static_cast<double>(build_rows_.num_rows()));
  ctx->ChargeDram(build_bytes_);

  probe_source_ = dynamic_cast<MorselSource*>(left_.get());
  probe_slots_.clear();
  probed_ = false;
  probe_cursor_ = 0;
  return Status::OK();
}

Status HashJoinOp::ProbeBatch(const RecordBatch& probe, RowPairs* pairs,
                              RecordBatch* joined, size_t* matches) const {
  ECODB_RETURN_IF_ERROR(CheckRowIds(probe.num_rows()));
  pairs->left.clear();
  pairs->right.clear();
  table_.Probe(probe.column(static_cast<size_t>(left_key_)),
               build_rows_.column(static_cast<size_t>(right_key_)), pairs);
  *matches = pairs->left.size();
  return EmitPairs(schema_, probe, build_rows_, *pairs, 0, *matches, joined);
}

Status HashJoinOp::ParallelProbe() {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  const size_t n_morsels = probe_source_->morsel_count();
  probe_slots_.assign(n_morsels, RecordBatch{});
  std::vector<size_t> match_counts(n_morsels, 0);
  WorkerPool* pool = ctx_->worker_pool();
  std::vector<WorkAccumulator> accs(static_cast<size_t>(pool->parallelism()));
  std::vector<RowPairs> pairs(accs.size());
  ECODB_RETURN_IF_ERROR(
      pool->Run(n_morsels, [&](size_t m, int slot) -> Status {
        // ecodb-lint: worker-context
        RecordBatch probe;
        ECODB_RETURN_IF_ERROR(probe_source_->ProduceMorsel(
            m, &probe, &accs[static_cast<size_t>(slot)]));
        return ProbeBatch(probe, &pairs[static_cast<size_t>(slot)],
                          &probe_slots_[m], &match_counts[m]);
      }));
  uint64_t probe_rows = 0;
  for (const WorkAccumulator& acc : accs) {
    probe_rows += acc.rows_out;
    ctx_->MergeWork(acc);
  }
  uint64_t total_matches = 0;
  for (size_t m : match_counts) total_matches += m;
  // Same constants as the serial probe, applied to dop-invariant totals.
  ctx_->ChargeInstructions(
      ctx_->options().costs.hash_probe_per_row *
          static_cast<double>(probe_rows) +
      ctx_->options().costs.output_per_row *
          static_cast<double>(total_matches));
  probed_ = true;
  probe_cursor_ = 0;
  return Status::OK();
}

Status HashJoinOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  if (probe_source_ != nullptr) {
    if (!probed_) ECODB_RETURN_IF_ERROR(ParallelProbe());
    if (probe_cursor_ >= probe_slots_.size()) {
      *eos = true;
      return Status::OK();
    }
    *eos = false;
    *out = std::move(probe_slots_[probe_cursor_]);
    ++probe_cursor_;
    return Status::OK();
  }
  while (true) {
    ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
    RecordBatch probe;
    ECODB_RETURN_IF_ERROR(left_->Next(&probe, eos));
    if (*eos) return Status::OK();
    ctx_->ChargeInstructions(ctx_->options().costs.hash_probe_per_row *
                             static_cast<double>(probe.num_rows()));
    RecordBatch joined;
    size_t matches = 0;
    ECODB_RETURN_IF_ERROR(
        ProbeBatch(probe, &serial_pairs_, &joined, &matches));
    ctx_->ChargeInstructions(ctx_->options().costs.output_per_row *
                             static_cast<double>(matches));
    *out = std::move(joined);
    return Status::OK();
  }
}

void HashJoinOp::Close() {
  left_->Close();
  right_->Close();
  table_.Clear();
  serial_pairs_ = RowPairs{};
  probe_slots_.clear();
}

// --------------------------------------------------------------------------
// NestedLoopJoinOp
// --------------------------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {}

Status NestedLoopJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &inner_));
  return predicate_->Bind(schema_);
}

Status NestedLoopJoinOp::Next(RecordBatch* out, bool* eos) {
  // ecodb-lint: coordinator-only
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  RecordBatch outer;
  ECODB_RETURN_IF_ERROR(left_->Next(&outer, eos));
  if (*eos) return Status::OK();

  // Cross product of this outer batch with the inner side, then filter.
  // The quadratic pair cost is the point: NLJ trades memory for cycles.
  ctx_->ChargeInstructions(ctx_->options().costs.nl_join_inner_per_pair *
                           static_cast<double>(outer.num_rows()) *
                           static_cast<double>(inner_.num_rows()));
  ECODB_RETURN_IF_ERROR(CheckRowIds(outer.num_rows()));
  RowPairs pairs;
  for (size_t lr = 0; lr < outer.num_rows(); ++lr) {
    for (size_t rr = 0; rr < inner_.num_rows(); ++rr) {
      pairs.left.push_back(static_cast<uint32_t>(lr));
      pairs.right.push_back(static_cast<uint32_t>(rr));
    }
  }
  RecordBatch joined;
  ECODB_RETURN_IF_ERROR(EmitPairs(schema_, outer, inner_, pairs, 0,
                                  pairs.left.size(), &joined));
  ECODB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                         predicate_->EvaluateMask(joined));
  joined.FilterInPlace(mask);
  ctx_->ChargeInstructions(ctx_->options().costs.output_per_row *
                           static_cast<double>(joined.num_rows()));
  *out = std::move(joined);
  return Status::OK();
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_->Close();
}

// --------------------------------------------------------------------------
// MergeJoinOp
// --------------------------------------------------------------------------

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::string left_key, std::string right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_name_(std::move(left_key)),
      right_key_name_(std::move(right_key)) {}

Status MergeJoinOp::Open(ExecContext* ctx) {
  // ecodb-lint: coordinator-only
  ctx_ = ctx;
  ECODB_RETURN_IF_ERROR(left_->Open(ctx));
  ECODB_RETURN_IF_ERROR(right_->Open(ctx));
  schema_ = JoinedSchema(left_->output_schema(), right_->output_schema());

  const int lk = left_->output_schema().FindColumn(left_key_name_);
  const int rk = right_->output_schema().FindColumn(right_key_name_);
  if (lk < 0 || rk < 0) return Status::NotFound("join key column not found");
  if (left_->output_schema().column(lk).type != DataType::kInt64 ||
      right_->output_schema().column(rk).type != DataType::kInt64) {
    return Status::InvalidArgument("merge join requires int64 keys");
  }

  RecordBatch& lrows = left_rows_;
  RecordBatch& rrows = right_rows_;
  ECODB_RETURN_IF_ERROR(Drain(left_.get(), ctx, &lrows));
  ECODB_RETURN_IF_ERROR(Drain(right_.get(), ctx, &rrows));

  auto sorted_order = [&](const RecordBatch& b, int key) {
    std::vector<size_t> order(b.num_rows());
    std::iota(order.begin(), order.end(), size_t{0});
    const ColumnData& lane = b.column(key);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t c) {
      return lane.i64[a] < lane.i64[c];
    });
    return order;
  };
  const std::vector<size_t> lorder = sorted_order(lrows, lk);
  const std::vector<size_t> rorder = sorted_order(rrows, rk);
  const auto nlogn = [](size_t n) {
    return n > 1 ? static_cast<double>(n) *
                       std::log2(static_cast<double>(n))
                 : 0.0;
  };
  ctx->ChargeInstructions(ctx->options().costs.sort_per_row_log_row *
                          (nlogn(lrows.num_rows()) + nlogn(rrows.num_rows())));

  // Merge equal-key runs.
  pairs_ = RowPairs{};
  const ColumnData& lkeys = lrows.column(lk);
  const ColumnData& rkeys = rrows.column(rk);
  size_t i = 0, j = 0, emitted = 0;
  while (i < lorder.size() && j < rorder.size()) {
    const int64_t lv = lkeys.i64[lorder[i]];
    const int64_t rv = rkeys.i64[rorder[j]];
    if (lv < rv) {
      ++i;
    } else if (lv > rv) {
      ++j;
    } else {
      size_t jend = j;
      while (jend < rorder.size() && rkeys.i64[rorder[jend]] == lv) ++jend;
      size_t iend = i;
      while (iend < lorder.size() && lkeys.i64[lorder[iend]] == lv) ++iend;
      for (size_t a = i; a < iend; ++a) {
        for (size_t b = j; b < jend; ++b) {
          pairs_.left.push_back(static_cast<uint32_t>(lorder[a]));
          pairs_.right.push_back(static_cast<uint32_t>(rorder[b]));
          ++emitted;
        }
      }
      i = iend;
      j = jend;
    }
  }
  ctx->ChargeInstructions(
      ctx->options().costs.output_per_row * static_cast<double>(emitted) +
      2.0 * static_cast<double>(lorder.size() + rorder.size()));
  cursor_ = 0;
  return Status::OK();
}

Status MergeJoinOp::Next(RecordBatch* out, bool* eos) {
  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());
  const size_t batch_rows = ctx_->options().batch_rows;
  if (cursor_ >= pairs_.left.size()) {
    *eos = true;
    return Status::OK();
  }
  *eos = false;
  const size_t take = std::min(batch_rows, pairs_.left.size() - cursor_);
  ECODB_RETURN_IF_ERROR(EmitPairs(schema_, left_rows_, right_rows_, pairs_,
                                  cursor_, cursor_ + take, out));
  cursor_ += take;
  return Status::OK();
}

void MergeJoinOp::Close() {
  left_->Close();
  right_->Close();
}

}  // namespace ecodb::exec
