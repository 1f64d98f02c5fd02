#include "src/finance/utility.h"

#include <cmath>

#include "src/common/check.h"

namespace dstress::finance {

double EnSensitivity(double leverage_bound_r) {
  DSTRESS_CHECK(leverage_bound_r > 0);
  return 1.0 / leverage_bound_r;
}

double EgjSensitivity(double leverage_bound_r) {
  DSTRESS_CHECK(leverage_bound_r > 0);
  return 2.0 / leverage_bound_r;
}

double EpsilonForAccuracy(double sensitivity, double granularity_dollars,
                          double error_bound_dollars, double confidence) {
  DSTRESS_CHECK(confidence > 0 && confidence < 1);
  DSTRESS_CHECK(error_bound_dollars > 0);
  // One-sided Laplace tail P(Lap(b) > t) = 0.5*exp(-t/b) with b = T*s/eps,
  // the convention under which the paper's Section 4.5 obtains
  // eps >= ln(10)/10 ~ 0.23 for +-$200B at 95%.
  return sensitivity * granularity_dollars * std::log(0.5 / (1.0 - confidence)) /
         error_bound_dollars;
}

double QueriesPerYear(double yearly_budget, double epsilon_per_query) {
  DSTRESS_CHECK(epsilon_per_query > 0);
  return yearly_budget / epsilon_per_query;
}

double NoiseAlphaForRelease(double sensitivity_dollars, double epsilon, double unit_dollars) {
  DSTRESS_CHECK(sensitivity_dollars > 0 && epsilon > 0 && unit_dollars > 0);
  double sensitivity_units = sensitivity_dollars / unit_dollars;
  return std::exp(-epsilon / sensitivity_units);
}

}  // namespace dstress::finance
