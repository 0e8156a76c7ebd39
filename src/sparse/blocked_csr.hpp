// Blocked CSR: the auxiliary structure required by Algorithm 4 (§II-B2,
// §III-B of the paper). The matrix is partitioned into vertical blocks of
// b_n columns; within each block the entries are stored by row so the kernel
// can walk nonempty rows and reuse one regenerated column of S across the
// whole row.
//
// Each block is doubly compressed (DCSR, Buluç & Gilbert's hypersparse
// format): it lists only its nonempty rows, so a slab costs
// O(nonempty_rows + nnz) memory rather than the m+1 row pointers of plain
// CSR that make up the paper's m·⌈n/b_n⌉ term. At a cache-fit b_n most slab
// rows are empty, and most of the rest hold one entry. Building all slabs
// costs O(nnz·⌈log₂m / 9⌉) in total — a radix sort of each slab's entries
// on row index, so O(nnz) below 2^18 rows — with no ⌈n/b_n⌉·m term.
#pragma once

#include <vector>

#include "sparse/csc.hpp"

namespace rsketch {

/// Vertical-block partition of an m×n CSC matrix with per-block DCSR storage.
template <typename T>
class BlockedCsr {
 public:
  /// One vertical slab A[:, col0 : col0 + width). Listed row k is global row
  /// rows[k]; its entries sit at [row_off[k], row_off[k+1]) of col_idx /
  /// values, with block-local column indices ascending.
  struct Block {
    index_t col0 = 0;                ///< first global column of the slab
    index_t width = 0;               ///< columns in the slab
    std::vector<index_t> rows;       ///< nonempty rows, strictly ascending
    std::vector<index_t> row_off;    ///< rows.size() + 1 offsets, from 0
    std::vector<index_t> col_idx;    ///< block-local column of each entry
    std::vector<T> values;
    /// Structure metadata for the jki kernel's counters and the schedule's
    /// cost model (validate_blocked_csr checks both against the arrays).
    index_t nnz = 0;            ///< stored entries in this slab
    index_t nonempty_rows = 0;  ///< listed rows (columns of S the kernel
                                ///< regenerates per i-block)
  };

  BlockedCsr() = default;

  /// Sequential construction.
  static BlockedCsr from_csc(const CscMatrix<T>& a, index_t block_cols);

  /// Parallel construction: slabs are built independently, one per task.
  static BlockedCsr from_csc_parallel(const CscMatrix<T>& a,
                                      index_t block_cols);

  /// Adopt blocks WITHOUT validation — for the fault-injection tests.
  /// Everything else builds through from_csc / from_csc_parallel.
  static BlockedCsr adopt_unchecked(index_t rows, index_t cols,
                                    index_t block_cols,
                                    std::vector<Block> blocks);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t block_cols() const { return block_cols_; }
  index_t num_blocks() const { return static_cast<index_t>(blocks_.size()); }
  const Block& block(index_t b) const {
    return blocks_[static_cast<std::size_t>(b)];
  }

  /// Cost-model metadata of block b (sketch/schedule.hpp): everything the
  /// per-block work estimator needs without touching the DCSR arrays.
  index_t block_nnz(index_t b) const { return block(b).nnz; }
  index_t block_nonempty_rows(index_t b) const {
    return block(b).nonempty_rows;
  }
  index_t block_width(index_t b) const { return block(b).width; }

  index_t nnz() const;
  std::size_t memory_bytes() const;

 private:
  struct Scratch;
  static BlockedCsr build(const CscMatrix<T>& a, index_t block_cols,
                          bool parallel);
  static Block build_block(const CscMatrix<T>& a, index_t col0,
                           index_t width, Scratch& s);

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t block_cols_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace rsketch
