#include "sparse/validate.hpp"

#include <cmath>
#include <sstream>

namespace rsketch {

const char* to_string(ValidationIssue issue) {
  switch (issue) {
    case ValidationIssue::NegativeDimension: return "negative dimension";
    case ValidationIssue::PointerSizeMismatch: return "pointer size mismatch";
    case ValidationIssue::PointerNotZeroBased: return "pointer not zero-based";
    case ValidationIssue::PointerNotMonotone: return "pointer not monotone";
    case ValidationIssue::PointerOutOfRange: return "pointer out of range";
    case ValidationIssue::PointerNnzMismatch: return "pointer/nnz mismatch";
    case ValidationIssue::ArraySizeMismatch: return "array size mismatch";
    case ValidationIssue::IndexOutOfRange: return "index out of range";
    case ValidationIssue::IndexNotSorted: return "indices not sorted";
    case ValidationIssue::NonFiniteValue: return "non-finite value";
    case ValidationIssue::BlockInconsistent: return "block inconsistent";
  }
  return "?";
}

std::string ValidationReport::summary() const {
  std::ostringstream os;
  os << structure << " " << rows << "x" << cols << " (nnz " << nnz << "): ";
  if (ok()) {
    os << "valid";
    return os.str();
  }
  os << findings_total << " violation(s)";
  if (non_finite_values > 0) {
    os << ", " << non_finite_values << " non-finite value(s)";
  }
  for (const ValidationFinding& f : findings) {
    os << "\n  [" << to_string(f.issue) << "] ";
    if (f.location >= 0) os << "at " << f.location << ": ";
    os << f.detail;
  }
  if (findings_total > static_cast<index_t>(findings.size())) {
    os << "\n  ... " << (findings_total - static_cast<index_t>(findings.size()))
       << " further finding(s) suppressed";
  }
  return os.str();
}

validation_error::validation_error(ValidationReport report)
    : invalid_argument_error(report.summary()), report_(std::move(report)) {}

template <typename T>
index_t count_non_finite(const T* values, index_t n) {
  index_t count = 0;
  for (index_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(values[i]))) ++count;
  }
  return count;
}

namespace {

void record(ValidationReport& report, const ValidateOptions& opt,
            ValidationIssue issue, index_t location, std::string detail) {
  ++report.findings_total;
  if (static_cast<index_t>(report.findings.size()) < opt.max_findings) {
    report.findings.push_back({issue, location, std::move(detail)});
  }
}

std::string fmt2(const char* what, index_t got, const char* vs, index_t want) {
  std::ostringstream os;
  os << what << " " << got << " " << vs << " " << want;
  return os.str();
}

/// Shared core for CSC and CSR: `nmajor` compressed segments over indices in
/// [0, nminor). `major_name` labels findings ("column" / "row").
template <typename T>
void validate_compressed(ValidationReport& report, const ValidateOptions& opt,
                         index_t nmajor, index_t nminor,
                         const std::vector<index_t>& ptr,
                         const std::vector<index_t>& idx,
                         const std::vector<T>& val, const char* major_name) {
  if (report.rows < 0 || report.cols < 0) {
    record(report, opt, ValidationIssue::NegativeDimension, -1,
           fmt2("rows", report.rows, "cols", report.cols));
    return;  // nothing below is meaningful
  }
  if (idx.size() != val.size()) {
    record(report, opt, ValidationIssue::ArraySizeMismatch, -1,
           fmt2("index array", static_cast<index_t>(idx.size()),
                "vs value array", static_cast<index_t>(val.size())));
  }
  const index_t stored = static_cast<index_t>(idx.size());
  if (static_cast<index_t>(ptr.size()) != nmajor + 1) {
    record(report, opt, ValidationIssue::PointerSizeMismatch, -1,
           fmt2("pointer array size", static_cast<index_t>(ptr.size()),
                "expected", nmajor + 1));
    // A wrong-sized pointer array cannot be walked segment by segment; scan
    // values directly so NaN findings are still reported, then stop.
    if (opt.check_values) {
      report.non_finite_values =
          count_non_finite(val.data(), static_cast<index_t>(val.size()));
      for (index_t k = 0; k < report.non_finite_values; ++k) {
        record(report, opt, ValidationIssue::NonFiniteValue, -1,
               "non-finite stored value");
      }
    }
    return;
  }
  if (!ptr.empty() && ptr.front() != 0) {
    record(report, opt, ValidationIssue::PointerNotZeroBased, 0,
           fmt2("ptr[0]", ptr.front(), "expected", 0));
  }
  if (!ptr.empty() && ptr.back() != stored) {
    record(report, opt, ValidationIssue::PointerNnzMismatch, nmajor,
           fmt2("ptr back", ptr.back(), "vs stored entries", stored));
  }
  for (index_t k = 0; k < nmajor; ++k) {
    const index_t lo = ptr[static_cast<std::size_t>(k)];
    const index_t hi = ptr[static_cast<std::size_t>(k) + 1];
    if (lo < 0 || lo > stored || hi < 0 || hi > stored) {
      record(report, opt, ValidationIssue::PointerOutOfRange, k,
             fmt2("segment", lo, "..", hi));
      continue;  // cannot safely walk this segment
    }
    if (lo > hi) {
      record(report, opt, ValidationIssue::PointerNotMonotone, k,
             fmt2("ptr", lo, "> next", hi));
      continue;
    }
    for (index_t p = lo; p < hi; ++p) {
      const index_t i = idx[static_cast<std::size_t>(p)];
      if (i < 0 || i >= nminor) {
        record(report, opt, ValidationIssue::IndexOutOfRange, k,
               fmt2(major_name, k, "stores index", i));
      } else if (p > lo && idx[static_cast<std::size_t>(p - 1)] >= i) {
        record(report, opt, ValidationIssue::IndexNotSorted, k,
               fmt2(major_name, k, "index not ascending at position", p));
      }
      if (opt.check_values && p < static_cast<index_t>(val.size()) &&
          !std::isfinite(static_cast<double>(val[static_cast<std::size_t>(p)]))) {
        ++report.non_finite_values;
        record(report, opt, ValidationIssue::NonFiniteValue, k,
               fmt2(major_name, k, "non-finite value at position", p));
      }
    }
  }
}

}  // namespace

template <typename T>
ValidationReport validate_csc(const CscMatrix<T>& a,
                              const ValidateOptions& opt) {
  ValidationReport report;
  report.structure = "csc";
  report.rows = a.rows();
  report.cols = a.cols();
  report.nnz = static_cast<index_t>(a.values().size());
  validate_compressed(report, opt, a.cols(), a.rows(), a.col_ptr(),
                      a.row_idx(), a.values(), "column");
  return report;
}

template <typename T>
ValidationReport validate_csr(const CsrMatrix<T>& a,
                              const ValidateOptions& opt) {
  ValidationReport report;
  report.structure = "csr";
  report.rows = a.rows();
  report.cols = a.cols();
  report.nnz = static_cast<index_t>(a.values().size());
  validate_compressed(report, opt, a.rows(), a.cols(), a.row_ptr(),
                      a.col_idx(), a.values(), "row");
  return report;
}

template <typename T>
ValidationReport validate_blocked_csr(const BlockedCsr<T>& a,
                                      const ValidateOptions& opt) {
  ValidationReport report;
  report.structure = "blocked_csr";
  report.rows = a.rows();
  report.cols = a.cols();
  report.nnz = a.nnz();
  if (a.rows() < 0 || a.cols() < 0) {
    record(report, opt, ValidationIssue::NegativeDimension, -1,
           fmt2("rows", a.rows(), "cols", a.cols()));
    return report;
  }
  index_t covered = 0;
  for (index_t b = 0; b < a.num_blocks(); ++b) {
    const auto& blk = a.block(b);
    if (blk.col0 != covered) {
      record(report, opt, ValidationIssue::BlockInconsistent, b,
             fmt2("block col0", blk.col0, "expected", covered));
    }
    covered = blk.col0 + blk.width;
    // The conversion-time metadata feeds the jki kernel's counter
    // accounting and the schedule's cost model; stale values would silently
    // skew both.
    if (blk.nnz != static_cast<index_t>(blk.values.size())) {
      record(report, opt, ValidationIssue::BlockInconsistent, b,
             fmt2("block nnz metadata", blk.nnz, "vs stored entries",
                  static_cast<index_t>(blk.values.size())));
    }
    const index_t listed = static_cast<index_t>(blk.rows.size());
    if (blk.nonempty_rows != listed) {
      record(report, opt, ValidationIssue::BlockInconsistent, b,
             fmt2("block nonempty_rows metadata", blk.nonempty_rows,
                  "vs listed rows", listed));
    }
    // Findings inside the block are located by position in its row list.
    ValidationReport inner;
    inner.rows = a.rows();
    inner.cols = blk.width;
    // The row list: strictly ascending, within [0, m).
    for (index_t k = 0; k < listed; ++k) {
      const index_t i = blk.rows[static_cast<std::size_t>(k)];
      if (i < 0 || i >= a.rows()) {
        record(inner, opt, ValidationIssue::IndexOutOfRange, k,
               fmt2("listed row", k, "is row", i));
      } else if (k > 0 && blk.rows[static_cast<std::size_t>(k) - 1] >= i) {
        record(inner, opt, ValidationIssue::IndexNotSorted, k,
               fmt2("row list not ascending at", k, "row", i));
      }
    }
    // No listed row is empty (the offsets' size, range and order are
    // validate_compressed's checks below).
    if (blk.row_off.size() == blk.rows.size() + 1) {
      for (index_t k = 0; k < listed; ++k) {
        if (blk.row_off[static_cast<std::size_t>(k)] ==
            blk.row_off[static_cast<std::size_t>(k) + 1]) {
          record(inner, opt, ValidationIssue::BlockInconsistent, k,
                 fmt2("listed row", k, "is empty: row",
                      blk.rows[static_cast<std::size_t>(k)]));
        }
      }
    }
    validate_compressed(inner, opt, listed, blk.width, blk.row_off,
                        blk.col_idx, blk.values, "listed row");
    report.non_finite_values += inner.non_finite_values;
    report.findings_total += inner.findings_total;
    for (ValidationFinding& f : inner.findings) {
      if (static_cast<index_t>(report.findings.size()) < opt.max_findings) {
        f.detail = "block " + std::to_string(b) + ": " + f.detail;
        report.findings.push_back(std::move(f));
      }
    }
  }
  if (covered != a.cols()) {
    record(report, opt, ValidationIssue::BlockInconsistent, a.num_blocks(),
           fmt2("blocks cover", covered, "of", a.cols()));
  }
  return report;
}

namespace {

template <typename M>
void require_valid_impl(const M& a, const ValidateOptions& opt,
                        ValidationReport (*validator)(const M&,
                                                      const ValidateOptions&)) {
  ValidationReport report = validator(a, opt);
  if (!report.ok()) throw validation_error(std::move(report));
}

}  // namespace

template <typename T>
void require_valid(const CscMatrix<T>& a, const ValidateOptions& opt) {
  require_valid_impl(a, opt, &validate_csc<T>);
}
template <typename T>
void require_valid(const CsrMatrix<T>& a, const ValidateOptions& opt) {
  require_valid_impl(a, opt, &validate_csr<T>);
}
template <typename T>
void require_valid(const BlockedCsr<T>& a, const ValidateOptions& opt) {
  require_valid_impl(a, opt, &validate_blocked_csr<T>);
}

#define RSKETCH_INSTANTIATE(T)                                               \
  template index_t count_non_finite<T>(const T*, index_t);                   \
  template ValidationReport validate_csc<T>(const CscMatrix<T>&,             \
                                            const ValidateOptions&);         \
  template ValidationReport validate_csr<T>(const CsrMatrix<T>&,             \
                                            const ValidateOptions&);         \
  template ValidationReport validate_blocked_csr<T>(const BlockedCsr<T>&,    \
                                                    const ValidateOptions&); \
  template void require_valid<T>(const CscMatrix<T>&,                        \
                                 const ValidateOptions&);                    \
  template void require_valid<T>(const CsrMatrix<T>&,                        \
                                 const ValidateOptions&);                    \
  template void require_valid<T>(const BlockedCsr<T>&,                       \
                                 const ValidateOptions&);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
