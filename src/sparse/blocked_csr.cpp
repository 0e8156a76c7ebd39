#include "sparse/blocked_csr.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace rsketch {

namespace {

/// Widest radix digit of the row sort: 512 buckets keep the histogram in
/// L1. A slab with fewer entries takes a narrower digit, so its histograms
/// never outweigh its entries (b_n = 1 on a wide matrix builds many tiny
/// slabs).
constexpr int kMaxDigitBits = 9;

}  // namespace

/// One thread's working set: a slab's entries as packed (row, local column)
/// keys with their values, twice over for the radix passes.
template <typename T>
struct BlockedCsr<T>::Scratch {
  std::vector<std::uint64_t> key, key2;
  std::vector<T> val, val2;
};

// A slab's entries arrive in column order, rows ascending within each
// column. A stable LSD radix sort on the row bits of the packed keys puts
// them in row order with the columns of each row still ascending; one scan
// then lists the rows and their offsets. The cost is
// O(nnz_b · ⌈log₂m / digit⌉) per slab — two passes up to 2^18 rows once a
// slab holds 256 entries — with no term in m, so ⌈n/b_n⌉ slabs cost about
// O(nnz) in all rather than the m·⌈n/b_n⌉ of per-slab row pointers.
//
// The output is correct by construction from a valid CSC, so no validation
// runs inside the timed conversion; callers who distrust the source validate
// via validate_blocked_csr() (SketchConfig::check_inputs).
template <typename T>
typename BlockedCsr<T>::Block BlockedCsr<T>::build_block(
    const CscMatrix<T>& a, index_t col0, index_t width, Scratch& s) {
  const index_t* col_ptr = a.col_ptr().data();
  const index_t* row_idx = a.row_idx().data();
  const index_t lo = col_ptr[col0];
  const auto nnz = static_cast<std::size_t>(col_ptr[col0 + width] - lo);
  const int col_bits = std::bit_width(static_cast<std::uint64_t>(width - 1));
  const int row_bits = std::bit_width(
      static_cast<std::uint64_t>(std::max<index_t>(a.rows(), 1) - 1));
  s.key.resize(nnz);
  s.val.resize(nnz);
  s.key2.resize(nnz);
  s.val2.resize(nnz);
  for (index_t j = 0; j < width; ++j) {
    for (index_t p = col_ptr[col0 + j]; p < col_ptr[col0 + j + 1]; ++p) {
      s.key[static_cast<std::size_t>(p - lo)] =
          static_cast<std::uint64_t>(row_idx[p]) << col_bits |
          static_cast<std::uint64_t>(j);
      s.val[static_cast<std::size_t>(p - lo)] = a.values()[p];
    }
  }
  const int digit =
      std::clamp(static_cast<int>(std::bit_width(nnz)), 4, kMaxDigitBits);
  const std::uint64_t mask = (std::uint64_t{1} << digit) - 1;
  for (int shift = col_bits; shift < col_bits + row_bits; shift += digit) {
    std::size_t start[(std::size_t{1} << kMaxDigitBits) + 1] = {};
    for (const std::uint64_t k : s.key) ++start[((k >> shift) & mask) + 1];
    for (std::uint64_t d = 0; d < mask + 1; ++d) start[d + 1] += start[d];
    for (std::size_t e = 0; e < nnz; ++e) {
      const std::size_t dst = start[(s.key[e] >> shift) & mask]++;
      s.key2[dst] = s.key[e];
      s.val2[dst] = s.val[e];
    }
    s.key.swap(s.key2);
    s.val.swap(s.val2);
  }

  Block blk;
  blk.col0 = col0;
  blk.width = width;
  blk.nnz = static_cast<index_t>(nnz);
  for (std::size_t e = 0; e < nnz; ++e) {
    blk.nonempty_rows +=
        e == 0 || (s.key[e] >> col_bits) != (s.key[e - 1] >> col_bits);
  }
  blk.rows.resize(static_cast<std::size_t>(blk.nonempty_rows));
  blk.row_off.resize(static_cast<std::size_t>(blk.nonempty_rows) + 1);
  blk.col_idx.resize(nnz);
  blk.values.assign(s.val.begin(), s.val.end());
  const std::uint64_t col_mask = (std::uint64_t{1} << col_bits) - 1;
  std::size_t k = 0;
  for (std::size_t e = 0; e < nnz; ++e) {
    const auto row = static_cast<index_t>(s.key[e] >> col_bits);
    if (e == 0 || row != blk.rows[k - 1]) {
      blk.rows[k] = row;
      blk.row_off[k++] = static_cast<index_t>(e);
    }
    blk.col_idx[e] = static_cast<index_t>(s.key[e] & col_mask);
  }
  blk.row_off[k] = blk.nnz;
  return blk;
}

template <typename T>
BlockedCsr<T> BlockedCsr<T>::build(const CscMatrix<T>& a, index_t block_cols,
                                   bool parallel) {
  require(block_cols >= 1, "BlockedCsr: block_cols must be >= 1");
  const index_t widest = std::min(block_cols, std::max<index_t>(a.cols(), 1));
  require(std::bit_width(static_cast<std::uint64_t>(widest - 1)) +
                  std::bit_width(static_cast<std::uint64_t>(
                      std::max<index_t>(a.rows(), 1) - 1)) <=
              64,
          "BlockedCsr: (row, column) pairs exceed the 64-bit entry key");
  BlockedCsr out;
  out.rows_ = a.rows();
  out.cols_ = a.cols();
  out.block_cols_ = block_cols;
  const index_t nb = a.cols() == 0 ? 0 : ceil_div(a.cols(), block_cols);
  out.blocks_.resize(static_cast<std::size_t>(nb));
#pragma omp parallel if (parallel)
  {
    Scratch scratch;
#pragma omp for schedule(dynamic)
    for (index_t b = 0; b < nb; ++b) {
      const index_t col0 = b * block_cols;
      out.blocks_[static_cast<std::size_t>(b)] = build_block(
          a, col0, std::min(block_cols, a.cols() - col0), scratch);
    }
  }
  return out;
}

template <typename T>
BlockedCsr<T> BlockedCsr<T>::from_csc(const CscMatrix<T>& a,
                                      index_t block_cols) {
  return build(a, block_cols, false);
}

template <typename T>
BlockedCsr<T> BlockedCsr<T>::from_csc_parallel(const CscMatrix<T>& a,
                                               index_t block_cols) {
  return build(a, block_cols, true);
}

template <typename T>
BlockedCsr<T> BlockedCsr<T>::adopt_unchecked(index_t rows, index_t cols,
                                             index_t block_cols,
                                             std::vector<Block> blocks) {
  BlockedCsr out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.block_cols_ = block_cols;
  out.blocks_ = std::move(blocks);
  return out;
}

template <typename T>
index_t BlockedCsr<T>::nnz() const {
  index_t total = 0;
  for (const auto& b : blocks_) total += static_cast<index_t>(b.values.size());
  return total;
}

template <typename T>
std::size_t BlockedCsr<T>::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& b : blocks_) {
    total += (b.rows.size() + b.row_off.size() + b.col_idx.size()) *
                 sizeof(index_t) +
             b.values.size() * sizeof(T);
  }
  return total;
}

template class BlockedCsr<float>;
template class BlockedCsr<double>;

}  // namespace rsketch
