// Edge-privacy accounting for the message-transfer protocol — a direct
// implementation of the paper's Appendix B formulas.
//
// Every bit-share transfer from block B_i to B_j is treated as a query
// Q_(i,j) on the graph with global sensitivity Δ = k+1 (the number of
// members whose 0/1 subshare bits enter the revealed sum). Node i masks the
// sum with 2·Geo(α^{2/Δ}) noise, so each transfer is (−ln α)-DP. The
// accountant below tracks:
//
//  * failure probability P_fail that the noised exponent falls outside the
//    ElGamal lookup table (Appendix B, the N_l-entry table bound),
//  * the largest α compatible with a target failure rate over N_q
//    transfers,
//  * per-iteration and yearly budget spend k·(k+1)·L·ε.
#ifndef SRC_DP_EDGE_PRIVACY_H_
#define SRC_DP_EDGE_PRIVACY_H_

#include <cstdint>

namespace dstress::dp {

struct TransferAccountingParams {
  int collusion_bound_k = 19;     // k; block size is k+1
  int message_bits = 16;          // L
  int iterations = 11;            // I
  int runs_per_year = 3;          // R
  int num_nodes = 1750;           // N
  int degree_bound = 100;         // D
  int years = 10;                 // Y (horizon for the failure budget)
  int64_t lookup_entries = 230'000'000;  // N_l (8 GB of table per Appendix B)
};

// Sensitivity Δ of one bit-share transfer: k+1.
int TransferSensitivity(int collusion_bound_k);

// Total number of bit-share transfers N_q = Y·R·I·N·D·L·(k+1)^2.
double TotalTransfers(const TransferAccountingParams& p);

// P_fail for a lookup table of N_l entries under noise parameter `alpha`
// (the per-transfer two-sided-geometric parameter after the 2/Δ exponent is
// applied): P_fail = (2·a^(N_l/2) + a − 1)/(1 + a) clipped to [0,1], where
// a = alpha_effective.
double FailureProbability(double alpha_effective, int64_t lookup_entries);

// Largest alpha (per-transfer epsilon = −ln alpha) such that the expected
// number of lookup failures over N_q transfers is at most one. Solved by
// bisection on the Appendix B inequality.
double MaxAlphaForFailureBudget(int64_t lookup_entries, double total_transfers);

// Inverse of FailureProbability in the table dimension: the smallest N_l
// such that a table of N_l entries keeps the per-transfer failure
// probability at or below `max_failure_probability` for the given effective
// alpha. A table of half-range ceil(N_l/2) absorbs one geometric draw;
// the transfer mask is 2·Geo, so TransferParams::RecommendedDlogRange
// doubles that and adds slack for the un-noised bit sum.
int64_t RequiredLookupEntries(double alpha_effective, double max_failure_probability);

// Privacy cost of one DStress iteration against an adversary watching one
// edge: the adversary's colluding members observe k·(k+1)·L noised sums.
double PerIterationEpsilon(int collusion_bound_k, int message_bits, double epsilon_per_transfer);

// Yearly spend: R·I iterations per year.
double YearlyEpsilon(const TransferAccountingParams& p, double epsilon_per_transfer);

// End-to-end evaluation used by the Appendix B bench: computes N_q,
// alpha_max, per-transfer epsilon, per-iteration and yearly budget use.
struct TransferBudgetReport {
  double total_transfers = 0;
  double alpha_max = 0;
  double epsilon_per_transfer = 0;
  double per_iteration_epsilon = 0;
  double yearly_epsilon = 0;
  double failure_probability = 0;
};
TransferBudgetReport EvaluateTransferBudget(const TransferAccountingParams& p);

// Simple additive privacy-budget accountant for the output mechanism
// (§4.5): budget eps_max = ln 2 replenished yearly, each query spending
// eps_query.
class PrivacyAccountant {
 public:
  explicit PrivacyAccountant(double budget) : budget_(budget) {}

  double budget() const { return budget_; }
  double spent() const { return spent_; }
  double remaining() const { return budget_ - spent_; }

  // Returns false (and charges nothing) if the charge exceeds the remaining
  // budget.
  bool Charge(double epsilon);
  void Replenish() { spent_ = 0; }

 private:
  double budget_;
  double spent_ = 0;
};

}  // namespace dstress::dp

#endif  // SRC_DP_EDGE_PRIVACY_H_
