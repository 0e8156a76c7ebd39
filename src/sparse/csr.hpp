// Compressed Sparse Row matrix — used by the MKL-style baseline (which works
// on the transposed operation) and by the streaming sketch.
#pragma once

#include <utility>
#include <vector>

#include "support/common.hpp"

namespace rsketch {

/// CSR sparse matrix: row i's nonzeros live at positions
/// [row_ptr[i], row_ptr[i+1]) of col_idx / values, column indices sorted
/// ascending within each row.
template <typename T>
class CsrMatrix {
 public:
  CsrMatrix() = default;

  CsrMatrix(index_t m, index_t n)
      : rows_(m), cols_(n), row_ptr_(static_cast<std::size_t>(m) + 1, 0) {
    require(m >= 0 && n >= 0, "CsrMatrix: negative dimension");
  }

  CsrMatrix(index_t m, index_t n, std::vector<index_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<T> values)
      : rows_(m),
        cols_(n),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {
    validate();
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(values_.size()); }

  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& col_idx() const { return col_idx_; }
  const std::vector<T>& values() const { return values_; }

  index_t row_nnz(index_t i) const { return row_ptr_[i + 1] - row_ptr_[i]; }

  /// O(row_nnz) random access; for tests and small problems.
  T at(index_t i, index_t j) const {
    require(i >= 0 && i < rows_ && j >= 0 && j < cols_,
            "CsrMatrix::at: index out of range");
    for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      if (col_idx_[p] == j) return values_[p];
    }
    return T{0};
  }

  std::size_t memory_bytes() const {
    return row_ptr_.size() * sizeof(index_t) +
           col_idx_.size() * sizeof(index_t) + values_.size() * sizeof(T);
  }

  void validate() const {
    require(rows_ >= 0 && cols_ >= 0, "CsrMatrix: negative dimension");
    require(static_cast<index_t>(row_ptr_.size()) == rows_ + 1,
            "CsrMatrix: row_ptr size must be rows+1");
    require(row_ptr_.front() == 0, "CsrMatrix: row_ptr[0] must be 0");
    require(row_ptr_.back() == static_cast<index_t>(col_idx_.size()),
            "CsrMatrix: row_ptr back must equal nnz");
    require(col_idx_.size() == values_.size(),
            "CsrMatrix: col_idx/values size mismatch");
    for (index_t i = 0; i < rows_; ++i) {
      require(row_ptr_[i] <= row_ptr_[i + 1],
              "CsrMatrix: row_ptr not monotone");
      for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
        require(col_idx_[p] >= 0 && col_idx_[p] < cols_,
                "CsrMatrix: column index out of range");
        require(p == row_ptr_[i] || col_idx_[p - 1] < col_idx_[p],
                "CsrMatrix: column indices must be strictly ascending");
      }
    }
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_{0};
  std::vector<index_t> col_idx_;
  std::vector<T> values_;
};

}  // namespace rsketch
