#include "analysis/pattern.hpp"

#include <algorithm>
#include <cmath>

namespace rsketch {

template <typename T>
std::vector<index_t> row_degree_histogram(const CscMatrix<T>& a) {
  std::vector<index_t> per_row(static_cast<std::size_t>(a.rows()), 0);
  for (index_t r : a.row_idx()) ++per_row[static_cast<std::size_t>(r)];
  std::vector<index_t> hist(static_cast<std::size_t>(a.cols()) + 1, 0);
  for (index_t k : per_row) {
    ++hist[static_cast<std::size_t>(std::min(k, a.cols()))];
  }
  return hist;
}

template <typename T>
RowDegreeStats row_degree_stats(const CscMatrix<T>& a) {
  RowDegreeStats s;
  const index_t m = a.rows();
  const index_t n = a.cols();
  if (m == 0 || n == 0) return s;
  std::vector<index_t> per_row(static_cast<std::size_t>(m), 0);
  for (index_t r : a.row_idx()) ++per_row[static_cast<std::size_t>(r)];
  double sum = 0.0;
  index_t max_deg = 0;
  for (index_t k : per_row) {
    sum += static_cast<double>(k);
    max_deg = std::max(max_deg, k);
  }
  s.mean = sum / static_cast<double>(m);
  s.max_fraction = static_cast<double>(max_deg) / static_cast<double>(n);
  return s;
}

template <typename T>
double expected_regen_fraction(const CscMatrix<T>& a, double n1) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  if (m == 0 || n == 0) return 0.0;
  const auto hist = row_degree_histogram(a);
  double regen = 0.0;
  for (std::size_t k = 1; k < hist.size(); ++k) {
    if (hist[k] == 0) continue;
    const double miss =
        std::pow(1.0 - static_cast<double>(k) / static_cast<double>(n), n1);
    regen += static_cast<double>(hist[k]) * (1.0 - miss);
  }
  return regen / static_cast<double>(m);
}

template <typename T>
double inverse_ci_pattern(const CscMatrix<T>& a, const RooflineParams& p,
                          double n1) {
  // Same normalization as inverse_ci(): cache term 2n₁/M plus the
  // generation term h·regen/(2ρ·n₁) with regen from the empirical pattern.
  const double rho = std::max(p.density, 1e-300);
  const double regen = expected_regen_fraction(a, n1);
  return 2.0 * n1 / p.cache_elems + p.rng_cost * regen / (2.0 * rho * n1);
}

template <typename T>
double optimal_n1_for_matrix(const CscMatrix<T>& a, const RooflineParams& p) {
  const double n1_max = std::max<double>(1.0, static_cast<double>(a.cols()));
  constexpr double kGolden = 0.6180339887498949;
  double lo = 1.0, hi = n1_max;
  double x1 = hi - kGolden * (hi - lo);
  double x2 = lo + kGolden * (hi - lo);
  double f1 = inverse_ci_pattern(a, p, x1);
  double f2 = inverse_ci_pattern(a, p, x2);
  for (int it = 0; it < 90 && hi - lo > 0.5; ++it) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kGolden * (hi - lo);
      f1 = inverse_ci_pattern(a, p, x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kGolden * (hi - lo);
      f2 = inverse_ci_pattern(a, p, x2);
    }
  }
  const double cont = 0.5 * (lo + hi);
  double best = std::clamp(std::floor(cont), 1.0, n1_max);
  double best_f = inverse_ci_pattern(a, p, best);
  const double up = std::clamp(std::ceil(cont), 1.0, n1_max);
  if (inverse_ci_pattern(a, p, up) < best_f) best = up;
  return best;
}

#define RSKETCH_INSTANTIATE(T)                                             \
  template std::vector<index_t> row_degree_histogram<T>(                   \
      const CscMatrix<T>&);                                                \
  template RowDegreeStats row_degree_stats<T>(const CscMatrix<T>&);        \
  template double expected_regen_fraction<T>(const CscMatrix<T>&, double); \
  template double inverse_ci_pattern<T>(const CscMatrix<T>&,               \
                                        const RooflineParams&, double);    \
  template double optimal_n1_for_matrix<T>(const CscMatrix<T>&,            \
                                           const RooflineParams&);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
