// The SSB objective (paper §4.1).
//
// For a path P in a DWG with S(P) = Σ σ and B(P) the (possibly coloured)
// bottleneck, the paper defines
//
//   SSB(P) = λ·S(P) + (1−λ)·B(P),  λ ∈ [0,1]
//
// and §5 instantiates it with the plain sum S + B, which equals the λ = ½
// form up to a positive factor and therefore has the same minimizers. We
// keep the two coefficients explicit so that both the worked example of
// Fig 4 (which reports S + B, e.g. the optimum 20 = 10 + 10) and the λ
// sweep of bench_lambda_sweep can be expressed without rescaling results.
#pragma once

#include <cmath>

#include "common/check.hpp"

namespace treesat {

struct SsbObjective {
  double s_coeff = 1.0;  ///< weight of the host-side sum S
  double b_coeff = 1.0;  ///< weight of the satellite-side bottleneck B

  /// Paper-style λ-parameterization: λ·S + (1−λ)·B.
  [[nodiscard]] static SsbObjective from_lambda(double lambda) {
    TS_REQUIRE(lambda >= 0.0 && lambda <= 1.0, "lambda must be in [0,1], got " << lambda);
    return SsbObjective{lambda, 1.0 - lambda};
  }

  /// The paper's §5 objective (end-to-end delay): S + B.
  [[nodiscard]] static SsbObjective end_to_end() { return SsbObjective{1.0, 1.0}; }

  /// Bokhari-style pure bottleneck (used in comparisons, not by SB itself).
  [[nodiscard]] static SsbObjective pure_bottleneck() { return SsbObjective{0.0, 1.0}; }

  [[nodiscard]] double value(double s, double b) const { return s_coeff * s + b_coeff * b; }

  [[nodiscard]] bool valid() const { return s_coeff >= 0.0 && b_coeff >= 0.0; }

  /// Requires every cut's objective on a tree whose costs total
  /// `total_cost` (CruTree::total_cost) to be finite: S and B are partial
  /// sums of that total, so s_coeff·C + b_coeff·C bounds them all. By the
  /// cost rule (C ≤ DBL_MAX / 2) this holds whenever both coefficients are
  /// at most 1. Throws InvalidArgument otherwise.
  void require_finite_for(double total_cost) const {
    TS_REQUIRE(std::isfinite(s_coeff * total_cost + b_coeff * total_cost),
               "objective: s_coeff " << s_coeff << " and b_coeff " << b_coeff
                                     << " overflow on a tree whose costs total " << total_cost
                                     << " (s_coeff*C + b_coeff*C must be finite)");
  }
};

}  // namespace treesat
