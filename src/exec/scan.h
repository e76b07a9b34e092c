// Morsel-driven table scan, with optional zone-map pruning and a fused
// exact filter.
//
// On Open the scan submits the device I/O for the projected footprint
// (sequential stream — the whole point of the Figure 2 experiment is the
// size of this transfer under different compression choices) and performs
// the real decode of any compressed columns, charging the corresponding CPU
// instructions. A scan that rides another session's shared transfer of the
// same table (ExecContext::StageSharedScan) waits for that transfer instead
// of paying for its own.
//
// When the table has zone maps and a prune filter is supplied, blocks whose
// min/max cannot satisfy the filter are skipped: their rows are never
// emitted, and — for uncompressed columns and row-layout tables — their
// bytes are never transferred, so skipped I/O is skipped energy. Pruning is
// conservative (may emit non-matching rows); an optional exact filter is
// fused into the morsel loop.
//
// The selected row ranges are cut into morsels whose boundaries align with
// zone-map blocks, and the query's WorkerPool materializes/filters morsels
// concurrently (inline at dop 1). Determinism contract: morsel boundaries
// depend only on the table, the prune filter, and ExecOptions::morsel_rows —
// never on dop or on which worker ran a morsel. Output batches are emitted
// in morsel order, and all modeled charges are computed from dop-invariant
// totals on the coordinator, so a query returns byte-identical results and
// identical accounting at every dop (only wall-clock and the energy window
// change).
//
// The operator doubles as a MorselSource: consumers (aggregation, sort,
// top-k, the hash-join probe) pull morsels directly inside their own worker
// tasks instead of serializing through Next(), keeping the whole
// scan->filter->consume pipeline inside one worker per morsel.

#ifndef ECODB_EXEC_SCAN_H_
#define ECODB_EXEC_SCAN_H_

#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/worker_pool.h"
#include "storage/table_storage.h"

namespace ecodb::exec {

/// Per-block "may match" bitmap of `filter` against `table`'s zone maps
/// (conservative: unknown shapes prune nothing). Exposed for the planner's
/// scan-cost estimation; empty when the table has no zone maps.
std::vector<bool> ZoneBlocksMayMatch(const ExprPtr& filter,
                                     const storage::TableStorage& table);

/// A half-open run of selected row positions.
struct ScanRowRange {
  size_t begin;
  size_t end;
};

/// Outcome of zone-map pruning: the surviving row ranges (block-aligned,
/// ascending, adjacent blocks coalesced) plus skip statistics.
struct ScanPruning {
  std::vector<ScanRowRange> ranges;
  size_t blocks_skipped = 0;
  double selected_fraction = 1.0;
};

/// Evaluates `filter` against `table`'s zone maps into the selected row
/// ranges. With a null filter, no zone maps, or an empty table, everything
/// is selected. The scan and the planner's estimator use this one routine,
/// so `blocks_skipped` agrees between them.
ScanPruning PruneScan(const ExprPtr& filter,
                      const storage::TableStorage& table);

/// Device bytes a scan of `column_indexes` must transfer when only
/// `selected_fraction` of blocks survive pruning (whole-column codecs and
/// row-layout pages cannot skip partial transfers the same way).
uint64_t ScanTransferBytes(const storage::TableStorage& table,
                           const std::vector<int>& column_indexes,
                           double selected_fraction);

/// Modeled decode instructions for the same scan (per-value touch for
/// uncompressed lanes, codec decode cost for compressed ones, which always
/// decode the whole column).
double ScanDecodeInstructions(const storage::TableStorage& table,
                              const std::vector<int>& column_indexes,
                              double selected_fraction);

/// A pipeline source that can hand out independent morsels. ProduceMorsel
/// must be safe to call concurrently for distinct indexes once Open() has
/// returned.
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  /// Number of morsels (valid after Open).
  virtual size_t morsel_count() const = 0;

  /// Materializes morsel `index` into `out`, tallying the work into `acc`
  /// (rows_in = rows scanned, rows_out = rows surviving local filtering).
  virtual Status ProduceMorsel(size_t index, RecordBatch* out,
                               WorkAccumulator* acc) const = 0;
};

/// Splits selected row ranges into morsels of ~`target_rows`, aligned to
/// multiples of `block_rows` (pass 0 or 1 when the table has no zone maps).
std::vector<ScanRowRange> MorselizeRanges(
    const std::vector<ScanRowRange>& ranges, size_t block_rows,
    size_t target_rows);

class TableScanOp final : public Operator, public MorselSource {
 public:
  /// Projects `columns` (empty = all columns) from `table`. A non-null
  /// `prune_filter` enables zone-map block skipping (the table must have
  /// zone maps built; otherwise the filter is ignored). A non-null
  /// `exact_filter` (may alias prune_filter) is applied row-exactly inside
  /// each morsel, replacing a downstream FilterOp.
  TableScanOp(const storage::TableStorage* table,
              std::vector<std::string> columns = {},
              ExprPtr prune_filter = nullptr, ExprPtr exact_filter = nullptr);

  const catalog::Schema& output_schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override;
  Status Next(RecordBatch* out, bool* eos) override;
  void Close() override;

  // MorselSource:
  size_t morsel_count() const override { return morsels_.size(); }
  Status ProduceMorsel(size_t index, RecordBatch* out,
                       WorkAccumulator* acc) const override;

  /// Blocks skipped by zone-map pruning during the last Open (0 when
  /// pruning was off).
  size_t blocks_skipped() const { return blocks_skipped_; }

 private:
  /// Materializes rows [rows.begin, rows.end), filtered, into `out`.
  Status ProduceRows(ScanRowRange rows, RecordBatch* out,
                     WorkAccumulator* acc) const;
  /// Runs the pool over every morsel, cut into batch_rows pieces, into
  /// slots_ (standalone Operator use).
  Status Materialize();

  const storage::TableStorage* table_;
  std::vector<std::string> column_names_;
  std::vector<int> column_indexes_;
  ExprPtr prune_filter_;
  ExprPtr exact_filter_;
  catalog::Schema schema_;

  /// Per projected column: borrowed uncompressed lane or owned decode.
  std::vector<const storage::ColumnData*> sources_;
  std::vector<storage::ColumnData> owned_decodes_;

  std::vector<ScanRowRange> morsels_;
  size_t blocks_skipped_ = 0;
  std::vector<RecordBatch> slots_;  // standalone output, emitted in order
  bool materialized_ = false;
  size_t cursor_ = 0;
  ExecContext* ctx_ = nullptr;
  bool open_ = false;
};

}  // namespace ecodb::exec

#endif  // ECODB_EXEC_SCAN_H_
