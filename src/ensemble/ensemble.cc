#include "src/ensemble/ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"

namespace dstress::ensemble {

int64_t QuantileNearestRank(const std::vector<int64_t>& sorted, double q) {
  DSTRESS_CHECK(!sorted.empty());
  DSTRESS_CHECK(q >= 0.0 && q <= 1.0);
  // Nearest-rank: the ceil(q*K)-th smallest value (1-based), q=0 -> minimum.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) {
    rank = 1;
  }
  return sorted[rank - 1];
}

void ReduceEnsemble(const std::vector<std::vector<uint8_t>>& defaults, EnsembleReport* report) {
  const size_t k = report->scenarios.size();
  DSTRESS_CHECK(k > 0);
  std::vector<int64_t> sorted;
  sorted.reserve(k);
  double sum = 0;
  for (const ScenarioResult& sc : report->scenarios) {
    sorted.push_back(sc.released);
    sum += static_cast<double>(sc.released);
  }
  std::sort(sorted.begin(), sorted.end());
  report->mean = sum / static_cast<double>(k);
  double var = 0;
  for (int64_t v : sorted) {
    double d = static_cast<double>(v) - report->mean;
    var += d * d;
  }
  report->stddev = k > 1 ? std::sqrt(var / static_cast<double>(k - 1)) : 0.0;
  report->min_released = sorted.front();
  report->max_released = sorted.back();
  report->p05 = QuantileNearestRank(sorted, 0.05);
  report->p25 = QuantileNearestRank(sorted, 0.25);
  report->p50 = QuantileNearestRank(sorted, 0.50);
  report->p75 = QuantileNearestRank(sorted, 0.75);
  report->p95 = QuantileNearestRank(sorted, 0.95);

  report->default_probability.clear();
  report->default_band_lo.clear();
  report->default_band_hi.clear();
  if (!defaults.empty()) {
    DSTRESS_CHECK(defaults.size() == k);
    const size_t n = defaults[0].size();
    report->default_probability.resize(n);
    report->default_band_lo.resize(n);
    report->default_band_hi.resize(n);
    for (size_t v = 0; v < n; v++) {
      double hits = 0;
      for (size_t s = 0; s < k; s++) {
        DSTRESS_CHECK(defaults[s].size() == n);
        hits += defaults[s][v] ? 1.0 : 0.0;
      }
      double p = hits / static_cast<double>(k);
      double half = 1.96 * std::sqrt(p * (1.0 - p) / static_cast<double>(k));
      report->default_probability[v] = p;
      report->default_band_lo[v] = std::max(0.0, p - half);
      report->default_band_hi[v] = std::min(1.0, p + half);
    }
  }
}

engine::RunSpec SoloSpecFor(const engine::RunSpec& base, const Scenario& scenario) {
  engine::RunSpec solo = base;
  solo.ensemble.reset();
  solo.shock = scenario.shock;
  if (scenario.workload_seed.has_value()) {
    solo.workload = engine::DeriveWorkloadParams(base);
    solo.workload->seed = *scenario.workload_seed;
  }
  return solo;
}

std::string EnsembleReport::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "ensemble W=%zu mode=%s mean=%.1f sd=%.1f p05=%lld p50=%lld p95=%lld "
                "eps_total=%.3f %s",
                scenarios.size(), engine::ExecutionModeName(mode), mean, stddev,
                static_cast<long long>(p05), static_cast<long long>(p50),
                static_cast<long long>(p95), epsilon_total, metrics.ToString().c_str());
  return buf;
}

std::string FormatEnsembleReport(const engine::RunSpec& spec, const EnsembleReport& report) {
  const size_t k = report.scenarios.size();
  int num_vertices =
      spec.graph.has_value() ? spec.graph->num_vertices() : spec.topology.num_vertices;
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "model:               %s\n"
                "mode:                %s\n"
                "transport:           %s%s\n"
                "banks:               %d (block size %d, %d iterations)\n"
                "scenarios:           %zu per lockstep pass\n",
                report.model_name.c_str(), engine::ExecutionModeName(report.mode),
                spec.transport.backend.c_str(), spec.use_ot_triples ? ", triples: ot" : "",
                num_vertices, spec.block_size, report.iterations, k);
  out += buf;
  if (report.epsilon_budget > 0) {
    std::snprintf(buf, sizeof(buf),
                  "privacy:             eps %.3f per scenario, %.3f composed (budget %.3f)\n",
                  report.epsilon_each, report.epsilon_total, report.epsilon_budget);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "privacy:             eps %.3f per scenario, %.3f composed (uncapped)\n",
                  report.epsilon_each, report.epsilon_total);
  }
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "released TDS:        mean %.1f, stddev %.1f money units\n"
                "quantiles:           p05=%lld p25=%lld p50=%lld p75=%lld p95=%lld "
                "(nearest-rank)\n"
                "range:               [%lld, %lld]\n",
                report.mean, report.stddev, static_cast<long long>(report.p05),
                static_cast<long long>(report.p25), static_cast<long long>(report.p50),
                static_cast<long long>(report.p75), static_cast<long long>(report.p95),
                static_cast<long long>(report.min_released),
                static_cast<long long>(report.max_released));
  out += buf;
  if (!report.default_probability.empty()) {
    int at_risk = 0;
    for (double p : report.default_probability) {
      if (p > 0.5) {
        at_risk++;
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "default risk:        %d of %zu banks with P(default) > 0.5 "
                  "(95%% bands, cleartext check, not released)\n",
                  at_risk, report.default_probability.size());
    out += buf;
    // Per-bank bands, bounded: the highest-risk banks only.
    std::vector<size_t> order(report.default_probability.size());
    for (size_t v = 0; v < order.size(); v++) {
      order[v] = v;
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return report.default_probability[a] > report.default_probability[b];
    });
    size_t shown = std::min<size_t>(order.size(), 8);
    for (size_t i = 0; i < shown; i++) {
      size_t v = order[i];
      std::snprintf(buf, sizeof(buf), "  bank %-5zu P(default) = %.3f  [%.3f, %.3f]\n", v,
                    report.default_probability[v], report.default_band_lo[v],
                    report.default_band_hi[v]);
      out += buf;
    }
  }
  if (k <= 16) {
    for (const ScenarioResult& sc : report.scenarios) {
      if (sc.has_reference) {
        std::snprintf(buf, sizeof(buf), "  %-36s released %lld (ref %llu)\n", sc.label.c_str(),
                      static_cast<long long>(sc.released),
                      static_cast<unsigned long long>(sc.reference));
      } else {
        std::snprintf(buf, sizeof(buf), "  %-36s released %lld\n", sc.label.c_str(),
                      static_cast<long long>(sc.released));
      }
      out += buf;
    }
  }
  out += engine::FormatPhaseLine(report.metrics);
  std::snprintf(buf, sizeof(buf),
                "wall time:           %.2f s\n"
                "traffic per bank:    %.2f MB\n",
                report.metrics.total_seconds, report.metrics.avg_bytes_per_node / 1e6);
  out += buf;
  return out + engine::FormatHaLines(spec, report.metrics);
}

}  // namespace dstress::ensemble
