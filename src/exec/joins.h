// Join operators: hash join, (block) nested-loop join, sort-merge join.
//
// Section 4.1 of the paper uses the hash-join-vs-nested-loop choice as the
// canonical example of an energy-aware optimization: "the hash-join operator
// ... relies on using a large chunk of memory ... From a power perspective,
// these are 'expensive' operations and may tip the balance in favor of
// nested-loop join in more occasions than before." The operators here report
// their memory traffic (hash table builds) and CPU work separately so the
// optimizer's energy model can price exactly that tradeoff.
//
// Output schema convention: left columns then right columns; a right column
// whose name collides with a left column is exposed as "<name>_r".

#ifndef ECODB_EXEC_JOINS_H_
#define ECODB_EXEC_JOINS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/scan.h"

namespace ecodb::exec {

/// Builds the joined schema per the collision convention above.
catalog::Schema JoinedSchema(const catalog::Schema& left,
                             const catalog::Schema& right);

/// Matched (left row, right row) index pairs, in emission order. Every
/// join collects these and then gathers its output lane by lane.
struct RowPairs {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
};

/// Flat hash index over one build-side key lane (int64/date or string).
/// Rows are counting-sorted by bucket into contiguous arrays, so a probe
/// scans one slice of inline keys (string keys store their hash, and the
/// string is compared only on a hash hit). Within a bucket, rows sit in
/// descending row order: each probe row's matches come out in descending
/// build-row order, whatever the hash or bucket count.
class JoinHashTable {
 public:
  /// Indexes `keys`. Fails if the lane has more rows than a 32-bit row id
  /// can name.
  Status Build(const ColumnData& keys);

  /// Appends one pair per match of each row of `probe` against `build`
  /// (the lane passed to Build), probe rows in order. Read-only; safe to
  /// call concurrently.
  void Probe(const ColumnData& probe, const ColumnData& build,
             RowPairs* out) const;

  void Clear();

 private:
  template <bool kStringKey>
  void ProbeLane(const ColumnData& probe, const ColumnData& build,
                 RowPairs* out) const;

  /// Unused entries past the end, so a probe may read two entries of any
  /// bucket without a bounds check.
  static constexpr size_t kSentinels = 2;

  uint64_t mask_ = 0;
  std::vector<uint32_t> offsets_;  // bucket b: [offsets_[b], offsets_[b+1])
  std::vector<uint64_t> tags_;     // the int64 key, or the string's hash
  std::vector<uint32_t> rows_;     // build row of each entry
};

/// Equi-join on one key column per side. The right (build) side must fit
/// in memory; its size is charged as DRAM traffic.
///
/// When the left (probe) child is a MorselSource (a table scan),
/// the probe phase runs morsel-parallel: each worker pulls probe morsels
/// and probes the read-only build table into a per-morsel output slot;
/// slots are emitted in morsel order and all modeled charges come from
/// dop-invariant row/match totals, so results and accounting match the
/// serial probe exactly.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key,
             std::string right_key);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  /// Bytes resident in the build hash table after Open (observability for
  /// the optimizer-vs-actual tests).
  uint64_t build_bytes() const { return build_bytes_; }

 private:
  /// Probes one batch against the build table, collecting its matches in
  /// `pairs` (the caller's scratch, reused across batches). Read-only;
  /// safe to call concurrently with distinct batches and scratch.
  Status ProbeBatch(const RecordBatch& probe, RowPairs* pairs,
                    RecordBatch* joined, size_t* matches) const;
  /// Runs the morsel-parallel probe into probe_slots_.
  Status ParallelProbe();

  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_name_;
  std::string right_key_name_;
  int left_key_ = -1;
  int right_key_ = -1;
  catalog::Schema schema_;
  // Build side, materialized and indexed on its key lane.
  RecordBatch build_rows_;
  JoinHashTable table_;
  uint64_t build_bytes_ = 0;
  // Parallel probe state (set when the left child is a MorselSource).
  MorselSource* probe_source_ = nullptr;
  std::vector<RecordBatch> probe_slots_;  // per-morsel, emitted in order
  RowPairs serial_pairs_;  // the coordinator probe's match scratch
  bool probed_ = false;
  size_t probe_cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

/// Block nested-loop join with an arbitrary predicate over the joined
/// schema. Inner (right) side is materialized once.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;
  catalog::Schema schema_;
  RecordBatch inner_;
  ExecContext* ctx_ = nullptr;
};

/// Sort-merge equi-join: materializes and sorts both sides by key, then
/// merges. CPU-heavier but needs no resident hash table.
class MergeJoinOp final : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key,
              std::string right_key);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_name_;
  std::string right_key_name_;
  catalog::Schema schema_;
  RecordBatch left_rows_;
  RecordBatch right_rows_;
  RowPairs pairs_;  // merged on Open; gathered out in batches
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_JOINS_H_
