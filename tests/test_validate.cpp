// Tests for the defensive sparse-format validators (sparse/validate.hpp):
// clean inputs validate, every corruption class is reported with the right
// issue code, and the validators never crash on adversarial structures.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sparse/blocked_csr.hpp"
#include "sparse/generate.hpp"
#include "sparse/validate.hpp"
#include "testdata/faults.hpp"

namespace rsketch {
namespace {

CscMatrix<double> clean_matrix() {
  return random_sparse<double>(40, 30, 0.2, 1234);
}

TEST(Validate, CleanCscPasses) {
  const auto a = clean_matrix();
  const ValidationReport rep = validate_csc(a);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.structurally_valid());
  EXPECT_EQ(rep.structure, "csc");
  EXPECT_EQ(rep.rows, 40);
  EXPECT_EQ(rep.cols, 30);
  EXPECT_EQ(rep.nnz, a.nnz());
  EXPECT_NO_THROW(require_valid(a));
}

TEST(Validate, CleanCsrPasses) {
  const auto a = clean_matrix();
  // Round-trip through the CSR builder used by the blocked conversion.
  std::vector<index_t> ptr(41, 0);
  std::vector<index_t> idx;
  std::vector<double> val;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.col_ptr()[static_cast<std::size_t>(j)];
         p < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      ++ptr[static_cast<std::size_t>(a.row_idx()[static_cast<std::size_t>(p)]) + 1];
    }
  }
  for (std::size_t i = 1; i < ptr.size(); ++i) ptr[i] += ptr[i - 1];
  idx.resize(static_cast<std::size_t>(a.nnz()));
  val.resize(static_cast<std::size_t>(a.nnz()));
  std::vector<index_t> next(ptr.begin(), ptr.end() - 1);
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.col_ptr()[static_cast<std::size_t>(j)];
         p < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = a.row_idx()[static_cast<std::size_t>(p)];
      const index_t q = next[static_cast<std::size_t>(i)]++;
      idx[static_cast<std::size_t>(q)] = j;
      val[static_cast<std::size_t>(q)] =
          a.values()[static_cast<std::size_t>(p)];
    }
  }
  const auto r = CsrMatrix<double>(40, 30, std::move(ptr), std::move(idx),
                                   std::move(val));
  EXPECT_TRUE(validate_csr(r).ok());
}

TEST(Validate, CleanBlockedCsrPasses) {
  const auto a = clean_matrix();
  const auto ab = BlockedCsr<double>::from_csc(a, 8);
  const ValidationReport rep = validate_blocked_csr(ab);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

struct FaultCase {
  faults::CscFault fault;
  ValidationIssue expect;
};

TEST(Validate, EveryCscFaultIsDetectedWithTheRightIssue) {
  const auto a = clean_matrix();
  const FaultCase cases[] = {
      {faults::CscFault::ShuffledColPtr, ValidationIssue::PointerNotMonotone},
      {faults::CscFault::PointerOverrun, ValidationIssue::PointerOutOfRange},
      {faults::CscFault::NegativeIndex, ValidationIssue::IndexOutOfRange},
      {faults::CscFault::IndexOutOfRange, ValidationIssue::IndexOutOfRange},
      {faults::CscFault::UnsortedIndices, ValidationIssue::IndexNotSorted},
      {faults::CscFault::NanPayload, ValidationIssue::NonFiniteValue},
      {faults::CscFault::InfPayload, ValidationIssue::NonFiniteValue},
  };
  // A shuffled pointer can make one column span many original columns, so a
  // single fault may fan out into dozens of findings; lift the retention cap
  // so the expected issue class is never suppressed out of `findings`.
  ValidateOptions opt;
  opt.max_findings = 1 << 20;
  for (const FaultCase& c : cases) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const auto bad = faults::corrupt_csc(a, c.fault, seed);
      const ValidationReport rep = validate_csc(bad, opt);
      EXPECT_FALSE(rep.ok()) << to_string(c.fault) << " seed " << seed;
      bool found = false;
      for (const ValidationFinding& f : rep.findings) {
        if (f.issue == c.expect) found = true;
      }
      EXPECT_TRUE(found) << to_string(c.fault) << " seed " << seed
                         << " did not report " << to_string(c.expect) << "\n"
                         << rep.summary();
      EXPECT_EQ(rep.structurally_valid(), faults::is_value_fault(c.fault))
          << to_string(c.fault);
      EXPECT_THROW(require_valid(bad), validation_error);
    }
  }
}

TEST(Validate, ValueScanCanBeDisabled) {
  const auto a = clean_matrix();
  const auto bad = faults::corrupt_csc(a, faults::CscFault::NanPayload, 3);
  ValidateOptions opt;
  opt.check_values = false;
  EXPECT_TRUE(validate_csc(bad, opt).ok());
  EXPECT_NO_THROW(require_valid(bad, opt));
}

TEST(Validate, FindingsAreCappedButCounted) {
  // All-NaN payload: every entry is a finding, only max_findings retained.
  auto a = clean_matrix();
  for (auto& v : a.values()) v = std::numeric_limits<double>::quiet_NaN();
  ValidateOptions opt;
  opt.max_findings = 4;
  const ValidationReport rep = validate_csc(a, opt);
  EXPECT_EQ(static_cast<index_t>(rep.findings.size()), 4);
  EXPECT_EQ(rep.findings_total, a.nnz());
  EXPECT_EQ(rep.non_finite_values, a.nnz());
}

TEST(Validate, ValidationErrorCarriesReport) {
  const auto bad = faults::corrupt_csc(clean_matrix(),
                                       faults::CscFault::NegativeIndex, 9);
  try {
    require_valid(bad);
    FAIL() << "expected validation_error";
  } catch (const validation_error& e) {
    EXPECT_FALSE(e.report().ok());
    EXPECT_NE(std::string(e.what()).find("csc"), std::string::npos);
  }
}

TEST(Validate, ValidationErrorIsAnInvalidArgumentError) {
  const auto bad = faults::corrupt_csc(clean_matrix(),
                                       faults::CscFault::PointerOverrun, 2);
  // Callers that only know the seed taxonomy still catch it.
  EXPECT_THROW(require_valid(bad), invalid_argument_error);
}

TEST(Validate, NanInSourcePropagatesIntoBlockedCsrReport) {
  auto a = clean_matrix();
  ASSERT_GT(a.nnz(), 0);
  a.values()[0] = std::numeric_limits<double>::quiet_NaN();
  const auto ab = BlockedCsr<double>::from_csc(a, 8);
  const ValidationReport rep = validate_blocked_csr(ab);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.structurally_valid()) << rep.summary();
  EXPECT_EQ(rep.structure, "blocked_csr");
  EXPECT_EQ(rep.non_finite_values, 1);
}

// ---- DCSR invariants of the blocked-CSR slabs -----------------------------

using Block = BlockedCsr<double>::Block;

/// The clean matrix in slabs of 8 columns, with slab 1 changed by `corrupt`.
template <typename F>
BlockedCsr<double> corrupt_slab(F&& corrupt) {
  const auto ab = BlockedCsr<double>::from_csc(clean_matrix(), 8);
  std::vector<Block> blocks;
  for (index_t b = 0; b < ab.num_blocks(); ++b) blocks.push_back(ab.block(b));
  corrupt(blocks[1]);
  return BlockedCsr<double>::adopt_unchecked(ab.rows(), ab.cols(),
                                             ab.block_cols(),
                                             std::move(blocks));
}

/// The report flags `issue` with a detail containing `detail`, and
/// require_valid throws.
void expect_finding(const BlockedCsr<double>& bad, ValidationIssue issue,
                    const std::string& detail) {
  const ValidationReport rep = validate_blocked_csr(bad);
  EXPECT_FALSE(rep.ok());
  bool found = false;
  for (const ValidationFinding& f : rep.findings) {
    found = found || (f.issue == issue &&
                      f.detail.find(detail) != std::string::npos);
  }
  EXPECT_TRUE(found) << "no [" << to_string(issue) << "] '" << detail
                     << "'\n"
                     << rep.summary();
  EXPECT_THROW(require_valid(bad), validation_error);
}

TEST(Validate, DcsrRowListNotAscending) {
  const auto bad = corrupt_slab([](Block& blk) {
    ASSERT_GE(blk.rows.size(), 2u);
    std::swap(blk.rows[0], blk.rows[1]);
  });
  expect_finding(bad, ValidationIssue::IndexNotSorted, "not ascending");
}

TEST(Validate, DcsrRowListOutsideTheMatrix) {
  expect_finding(corrupt_slab([](Block& blk) { blk.rows.back() = 40; }),
                 ValidationIssue::IndexOutOfRange, "is row 40");
  expect_finding(corrupt_slab([](Block& blk) { blk.rows.front() = -1; }),
                 ValidationIssue::IndexOutOfRange, "is row -1");
}

TEST(Validate, DcsrEmptyListedRow) {
  // List one more row, between two listed rows, with no entries; the
  // metadata follows, so the empty row is the only fault.
  const auto bad = corrupt_slab([](Block& blk) {
    std::size_t k = 0;
    while (k + 1 < blk.rows.size() && blk.rows[k + 1] == blk.rows[k] + 1) ++k;
    ASSERT_LT(k + 1, blk.rows.size());
    blk.rows.insert(blk.rows.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                    blk.rows[k] + 1);
    blk.row_off.insert(blk.row_off.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                       blk.row_off[k + 1]);
    ++blk.nonempty_rows;
  });
  expect_finding(bad, ValidationIssue::BlockInconsistent, "is empty");
}

TEST(Validate, DcsrOffsetsNotMonotone) {
  const auto bad = corrupt_slab([](Block& blk) {
    ASSERT_GE(blk.row_off.size(), 3u);
    std::swap(blk.row_off[1], blk.row_off[2]);
  });
  expect_finding(bad, ValidationIssue::PointerNotMonotone, "ptr");
}

TEST(Validate, DcsrNonemptyRowsDisagreesWithTheRowList) {
  const auto bad = corrupt_slab([](Block& blk) { ++blk.nonempty_rows; });
  expect_finding(bad, ValidationIssue::BlockInconsistent,
                 "nonempty_rows metadata");
}

TEST(Validate, CountNonFinite) {
  const double vals[] = {1.0, std::numeric_limits<double>::infinity(), 2.0,
                         std::nan(""), -std::numeric_limits<double>::infinity()};
  EXPECT_EQ(count_non_finite(vals, 5), 3);
  EXPECT_EQ(count_non_finite(vals, 1), 0);
  EXPECT_EQ(count_non_finite<double>(nullptr, 0), 0);
}

}  // namespace
}  // namespace rsketch
