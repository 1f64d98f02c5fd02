// Utility and privacy-parameter analysis for the systemic-risk deployment
// (paper §4.4–§4.5).
//
// Sensitivity bounds come from Hemenway–Khanna: 2/r for
// Elliott–Golub–Jackson and 1/r for Eisenberg–Noe, where r bounds the
// leverage ratio (Basel III: r = 0.1). Dollar-differential privacy protects
// reallocations of up to T dollars in one portfolio, so the Laplace scale
// is T * sensitivity / epsilon.
#ifndef SRC_FINANCE_UTILITY_H_
#define SRC_FINANCE_UTILITY_H_

namespace dstress::finance {

// Sensitivity of the TDS to a T-dollar reallocation, in multiples of T.
double EnSensitivity(double leverage_bound_r);   // 1/r
double EgjSensitivity(double leverage_bound_r);  // 2/r

// Smallest epsilon such that |Lap(T*s/eps)| <= error_bound with the given
// confidence: eps = s*T*ln(1/(1-confidence)) / error_bound.
double EpsilonForAccuracy(double sensitivity, double granularity_dollars,
                          double error_bound_dollars, double confidence);

// How many queries a yearly budget supports at the given per-query epsilon.
double QueriesPerYear(double yearly_budget, double epsilon_per_query);

// Geometric-mechanism alpha for an integer-valued query: the TDS is
// released in money units of `unit_dollars`; sensitivity is in dollars.
double NoiseAlphaForRelease(double sensitivity_dollars, double epsilon, double unit_dollars);

}  // namespace dstress::finance

#endif  // SRC_FINANCE_UTILITY_H_
