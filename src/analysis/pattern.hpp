// Pattern-aware extension of the §III-A model (the paper's stated future
// work: "extend our theoretical analysis to sparse matrices with non-uniform
// sparsity patterns").
//
// The uniform model charges Algorithm 4 h·d₁·m₁·(1-(1-ρ)^{n₁}) generation
// cost per block because a row is regenerated iff it intersects the block.
// For a real matrix the intersection probability depends on each row's
// degree: row i with kᵢ nonzeros among n columns hits a random n₁-column
// block with probability 1-(1-kᵢ/n)^{n₁}. Plugging the empirical row-degree
// distribution into the objective yields a per-matrix optimal n₁ — exact
// for the Abnormal_A/C extremes of Table VI.
#pragma once

#include <vector>

#include "analysis/roofline.hpp"
#include "sparse/csc.hpp"

namespace rsketch {

/// Histogram of row degrees: counts[k] = number of rows with exactly k
/// stored entries (k capped at A.cols()).
template <typename T>
std::vector<index_t> row_degree_histogram(const CscMatrix<T>& a);

/// Summary statistics of the row-degree distribution — what the skew guard
/// (sketch/autotune.hpp) reads. `cv` is the
/// coefficient of variation (std/mean, 0 for uniform patterns and empty
/// matrices); `empty_fraction` the share of all-zero rows; `max_fraction`
/// the densest row's degree over n (1.0 for an Abnormal_A-style dense row).
struct RowDegreeStats {
  double mean = 0.0;
  double cv = 0.0;
  double empty_fraction = 0.0;
  double max_fraction = 0.0;
};

template <typename T>
RowDegreeStats row_degree_stats(const CscMatrix<T>& a);

/// Expected fraction of rows that must be regenerated for a random vertical
/// block of n1 columns, under the empirical row-degree distribution:
///   (1/m) Σ_i [1 - (1 - kᵢ/n)^{n₁}].
/// Equals 1-(1-ρ)^{n₁} for the uniform model; equals the dense-row fraction
/// (independent of n₁) for Abnormal_A-type patterns.
template <typename T>
double expected_regen_fraction(const CscMatrix<T>& a, double n1);

/// Reciprocal computational intensity with the empirical pattern replacing
/// the (1-(1-ρ)^{n₁}) term of Eq. (4). p.density is still used for the
/// cache-constraint term (it sets m₁).
template <typename T>
double inverse_ci_pattern(const CscMatrix<T>& a, const RooflineParams& p,
                          double n1);

/// Pattern-aware optimal n₁ ∈ [1, A.cols()], by golden-section search with
/// an integer polish (the empirical objective is still unimodal: a linear
/// cache term plus a decreasing amortization term).
template <typename T>
double optimal_n1_for_matrix(const CscMatrix<T>& a, const RooflineParams& p);

extern template std::vector<index_t> row_degree_histogram<float>(
    const CscMatrix<float>&);
extern template std::vector<index_t> row_degree_histogram<double>(
    const CscMatrix<double>&);
extern template RowDegreeStats row_degree_stats<float>(const CscMatrix<float>&);
extern template RowDegreeStats row_degree_stats<double>(
    const CscMatrix<double>&);
extern template double expected_regen_fraction<float>(const CscMatrix<float>&,
                                                      double);
extern template double expected_regen_fraction<double>(
    const CscMatrix<double>&, double);
extern template double inverse_ci_pattern<float>(const CscMatrix<float>&,
                                                 const RooflineParams&,
                                                 double);
extern template double inverse_ci_pattern<double>(const CscMatrix<double>&,
                                                  const RooflineParams&,
                                                  double);
extern template double optimal_n1_for_matrix<float>(const CscMatrix<float>&,
                                                    const RooflineParams&);
extern template double optimal_n1_for_matrix<double>(const CscMatrix<double>&,
                                                     const RooflineParams&);

}  // namespace rsketch
