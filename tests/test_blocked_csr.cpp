// Tests for the Algorithm 4 auxiliary structure: vertical-block DCSR
// partitioning of a CSC matrix, sequential and parallel construction.
#include <gtest/gtest.h>

#include <algorithm>

#include "sparse/blocked_csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/validate.hpp"

namespace rsketch {
namespace {

/// Entry (i, jl) of a slab, read through its row list: 0 unless row i is
/// listed and stores local column jl.
template <typename T>
T entry(const typename BlockedCsr<T>::Block& blk, index_t i, index_t jl) {
  const auto row = std::lower_bound(blk.rows.begin(), blk.rows.end(), i);
  if (row == blk.rows.end() || *row != i) return T{0};
  const auto k = static_cast<std::size_t>(row - blk.rows.begin());
  for (index_t p = blk.row_off[k]; p < blk.row_off[k + 1]; ++p) {
    if (blk.col_idx[static_cast<std::size_t>(p)] == jl) {
      return blk.values[static_cast<std::size_t>(p)];
    }
  }
  return T{0};
}

TEST(BlockedCsr, PartitionsColumnsCorrectly) {
  const auto a = random_sparse<double>(30, 17, 0.2, 5);
  const auto ab = BlockedCsr<double>::from_csc(a, 5);
  EXPECT_EQ(ab.rows(), 30);
  EXPECT_EQ(ab.cols(), 17);
  EXPECT_EQ(ab.num_blocks(), 4);  // 5+5+5+2
  EXPECT_EQ(ab.block(0).col0, 0);
  EXPECT_EQ(ab.block(3).col0, 15);
  EXPECT_EQ(ab.block(3).width, 2);
  EXPECT_EQ(ab.nnz(), a.nnz());
}

TEST(BlockedCsr, EntriesMatchOriginal) {
  const auto a = random_sparse<double>(25, 13, 0.3, 9);
  const auto ab = BlockedCsr<double>::from_csc(a, 4);
  EXPECT_TRUE(validate_blocked_csr(ab).ok());
  for (index_t b = 0; b < ab.num_blocks(); ++b) {
    const auto& blk = ab.block(b);
    for (index_t i = 0; i < ab.rows(); ++i) {
      for (index_t jl = 0; jl < blk.width; ++jl) {
        EXPECT_DOUBLE_EQ(entry<double>(blk, i, jl), a.at(i, blk.col0 + jl));
      }
    }
  }
}

// Taller than one 9-bit radix digit, so the row sort takes two or more
// passes, with slabs from 1 to 40 columns (narrow slabs take narrow digits).
TEST(BlockedCsr, EntriesMatchOriginalAcrossRadixPasses) {
  const auto a = random_sparse<double>(3000, 40, 0.05, 21);
  for (const index_t bn : {40, 3, 1}) {
    const auto ab = BlockedCsr<double>::from_csc_parallel(a, bn);
    EXPECT_TRUE(validate_blocked_csr(ab).ok()) << "b_n=" << bn;
    EXPECT_EQ(ab.nnz(), a.nnz());
    for (index_t b = 0; b < ab.num_blocks(); ++b) {
      const auto& blk = ab.block(b);
      for (index_t i = 0; i < ab.rows(); ++i) {
        for (index_t jl = 0; jl < blk.width; ++jl) {
          ASSERT_EQ(entry<double>(blk, i, jl), a.at(i, blk.col0 + jl))
              << "b_n=" << bn << " row " << i << " column " << blk.col0 + jl;
        }
      }
    }
  }
}

TEST(BlockedCsr, ListsExactlyTheNonemptyRows) {
  const auto a = random_sparse<double>(60, 20, 0.05, 12);
  const auto ab = BlockedCsr<double>::from_csc(a, 3);
  for (index_t b = 0; b < ab.num_blocks(); ++b) {
    const auto& blk = ab.block(b);
    std::vector<index_t> want;
    for (index_t i = 0; i < ab.rows(); ++i) {
      for (index_t jl = 0; jl < blk.width; ++jl) {
        if (a.at(i, blk.col0 + jl) != 0.0) {
          want.push_back(i);
          break;
        }
      }
    }
    EXPECT_EQ(blk.rows, want) << "block " << b;
    EXPECT_EQ(blk.nonempty_rows, static_cast<index_t>(want.size()));
    ASSERT_EQ(blk.row_off.size(), want.size() + 1);
    EXPECT_EQ(blk.row_off.front(), 0);
    EXPECT_EQ(blk.row_off.back(), blk.nnz);
    EXPECT_EQ(blk.nnz, static_cast<index_t>(blk.values.size()));
  }
}

TEST(BlockedCsr, ParallelMatchesSequential) {
  const auto a = random_sparse<float>(200, 60, 0.05, 31);
  // 1 slab, fewer slabs than threads, and many slabs per thread.
  for (const index_t bn : {60, 20, 7, 1}) {
    const auto seq = BlockedCsr<float>::from_csc(a, bn);
    const auto par = BlockedCsr<float>::from_csc_parallel(a, bn);
    ASSERT_EQ(seq.num_blocks(), par.num_blocks());
    for (index_t b = 0; b < seq.num_blocks(); ++b) {
      EXPECT_EQ(seq.block(b).col0, par.block(b).col0);
      EXPECT_EQ(seq.block(b).width, par.block(b).width);
      EXPECT_EQ(seq.block(b).rows, par.block(b).rows);
      EXPECT_EQ(seq.block(b).row_off, par.block(b).row_off);
      EXPECT_EQ(seq.block(b).col_idx, par.block(b).col_idx);
      EXPECT_EQ(seq.block(b).values, par.block(b).values);
      EXPECT_EQ(seq.block(b).nnz, par.block(b).nnz);
      EXPECT_EQ(seq.block(b).nonempty_rows, par.block(b).nonempty_rows);
    }
  }
}

TEST(BlockedCsr, BlockWiderThanMatrix) {
  const auto a = random_sparse<double>(10, 6, 0.4, 2);
  const auto ab = BlockedCsr<double>::from_csc(a, 100);
  EXPECT_EQ(ab.num_blocks(), 1);
  EXPECT_EQ(ab.block(0).width, 6);
  EXPECT_EQ(ab.nnz(), a.nnz());
}

TEST(BlockedCsr, SingleColumnBlocks) {
  const auto a = random_sparse<double>(12, 5, 0.5, 3);
  const auto ab = BlockedCsr<double>::from_csc(a, 1);
  EXPECT_EQ(ab.num_blocks(), 5);
  for (index_t b = 0; b < 5; ++b) {
    EXPECT_EQ(ab.block(b).width, 1);
  }
  EXPECT_EQ(ab.nnz(), a.nnz());
}

TEST(BlockedCsr, EmptyMatrix) {
  CscMatrix<double> a(8, 0);
  const auto ab = BlockedCsr<double>::from_csc(a, 3);
  EXPECT_EQ(ab.num_blocks(), 0);
  EXPECT_EQ(ab.nnz(), 0);
}

TEST(BlockedCsr, RowsWithinBlocksSorted) {
  const auto a = random_sparse<double>(50, 20, 0.15, 77);
  const auto ab = BlockedCsr<double>::from_csc(a, 6);
  EXPECT_TRUE(validate_blocked_csr(ab).ok());
  for (index_t b = 0; b < ab.num_blocks(); ++b) {
    const auto& blk = ab.block(b);
    EXPECT_TRUE(std::is_sorted(blk.rows.begin(), blk.rows.end()));
    EXPECT_EQ(std::adjacent_find(blk.rows.begin(), blk.rows.end()),
              blk.rows.end());
    for (std::size_t k = 0; k < blk.rows.size(); ++k) {
      // Nonempty, with ascending local columns.
      EXPECT_LT(blk.row_off[k], blk.row_off[k + 1]);
      for (index_t p = blk.row_off[k] + 1; p < blk.row_off[k + 1]; ++p) {
        EXPECT_LT(blk.col_idx[static_cast<std::size_t>(p) - 1],
                  blk.col_idx[static_cast<std::size_t>(p)]);
      }
    }
  }
}

TEST(BlockedCsr, InvalidBlockColsThrows) {
  const auto a = random_sparse<double>(5, 5, 0.2, 1);
  EXPECT_THROW(BlockedCsr<double>::from_csc(a, 0), invalid_argument_error);
  EXPECT_THROW(BlockedCsr<double>::from_csc_parallel(a, -2),
               invalid_argument_error);
}

TEST(BlockedCsr, MemoryBytesPositive) {
  const auto a = random_sparse<double>(40, 12, 0.3, 8);
  const auto ab = BlockedCsr<double>::from_csc(a, 4);
  EXPECT_GT(ab.memory_bytes(), 0u);
}

// The paper's m·⌈n/b_n⌉ row-pointer term is gone: narrowing the slabs of a
// tall, very sparse matrix adds at most one row index and one offset per
// nonzero and one closing offset per slab, however large m is.
TEST(BlockedCsr, MemoryDoesNotScaleWithRowsTimesSlabs) {
  const auto a = random_sparse<double>(100000, 64, 1e-4, 4);
  for (const index_t bn : {64, 8, 1}) {
    const auto ab = BlockedCsr<double>::from_csc(a, bn);
    const auto nnz = static_cast<std::size_t>(a.nnz());
    EXPECT_LE(ab.memory_bytes(),
              nnz * (sizeof(double) + 3 * sizeof(index_t)) +
                  static_cast<std::size_t>(ab.num_blocks()) * sizeof(index_t))
        << "b_n=" << bn;
  }
}

}  // namespace
}  // namespace rsketch
