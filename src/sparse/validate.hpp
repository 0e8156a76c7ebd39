// Structural and numeric validators for the sparse input formats.
//
// The checked CscMatrix/CsrMatrix constructors throw on the first structural
// violation, which is right for library-internal builders but useless for
// diagnosing a bad file or a hostile producer: they stop at one finding and
// say nothing about NaN/Inf payloads. These validators instead walk the whole
// structure defensively (never dereferencing through a pointer array that has
// not itself been bounds-checked), collect every class of violation into a
// structured ValidationReport, and optionally scan values for non-finite
// entries. They are wired into sketch() behind SketchConfig::check_inputs
// (opt-in, zero cost when off) and into sketch_tool (on by default).
#pragma once

#include <string>
#include <vector>

#include "sparse/blocked_csr.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"

namespace rsketch {

/// One class of structural or numeric violation.
enum class ValidationIssue {
  NegativeDimension,    ///< rows or cols < 0
  PointerSizeMismatch,  ///< ptr array is not (major dimension)+1 long
  PointerNotZeroBased,  ///< ptr[0] != 0
  PointerNotMonotone,   ///< ptr[k] > ptr[k+1]
  PointerOutOfRange,    ///< ptr entry outside [0, index array size]
  PointerNnzMismatch,   ///< ptr.back() != index array size
  ArraySizeMismatch,    ///< index and value arrays differ in length
  IndexOutOfRange,      ///< stored index outside [0, minor dimension)
  IndexNotSorted,       ///< indices within a segment not strictly ascending
  NonFiniteValue,       ///< NaN or ±Inf payload
  BlockInconsistent,    ///< blocked-CSR partition does not tile the matrix,
                        ///< stale block metadata, or an empty listed row
};

const char* to_string(ValidationIssue issue);

/// One concrete violation: which class, where (major index: column for CSC,
/// row for CSR; for blocked CSR the block, or the position in the block's
/// row list for findings inside a block; -1 when not attributable), and a
/// human-readable detail line.
struct ValidationFinding {
  ValidationIssue issue;
  index_t location = -1;
  std::string detail;
};

/// Outcome of validating one sparse structure. `findings` is capped at
/// ValidateOptions::max_findings so a thoroughly corrupt input cannot balloon
/// the report; `findings_total` counts everything.
struct ValidationReport {
  std::string structure;  ///< "csc" | "csr" | "blocked_csr"
  index_t rows = 0;
  index_t cols = 0;
  index_t nnz = 0;
  index_t findings_total = 0;       ///< uncapped violation count
  index_t non_finite_values = 0;    ///< NaN/Inf payloads found (subset)
  std::vector<ValidationFinding> findings;

  bool ok() const { return findings_total == 0; }
  /// True when the *structure* is sound (pointers/indices), even if values
  /// contain NaN/Inf — the kernels can safely run, garbage in garbage out.
  bool structurally_valid() const {
    return findings_total == non_finite_values;
  }
  /// One-line verdict plus one line per retained finding.
  std::string summary() const;
};

struct ValidateOptions {
  bool check_values = true;      ///< scan for NaN/Inf payloads
  index_t max_findings = 16;     ///< retained findings cap (total still counted)
};

/// Thrown by the require_valid_* helpers; carries the full report.
class validation_error : public invalid_argument_error {
 public:
  explicit validation_error(ValidationReport report);
  const ValidationReport& report() const { return report_; }

 private:
  ValidationReport report_;
};

/// Defensive full-structure validation. Never throws, never reads out of
/// bounds, even on adversarially corrupt inputs (e.g. built through
/// adopt_unchecked or memory corruption).
template <typename T>
ValidationReport validate_csc(const CscMatrix<T>& a,
                              const ValidateOptions& opt = {});
template <typename T>
ValidationReport validate_csr(const CsrMatrix<T>& a,
                              const ValidateOptions& opt = {});
template <typename T>
ValidationReport validate_blocked_csr(const BlockedCsr<T>& a,
                                      const ValidateOptions& opt = {});

/// Validate-or-throw wrappers: throw validation_error (an
/// invalid_argument_error) carrying the report when not ok().
template <typename T>
void require_valid(const CscMatrix<T>& a, const ValidateOptions& opt = {});
template <typename T>
void require_valid(const CsrMatrix<T>& a, const ValidateOptions& opt = {});
template <typename T>
void require_valid(const BlockedCsr<T>& a, const ValidateOptions& opt = {});

/// NaN/Inf scan over a raw value range (shared by the validators and the
/// guarded solver's sketch checks). Returns the count of non-finite entries.
template <typename T>
index_t count_non_finite(const T* values, index_t n);

}  // namespace rsketch
