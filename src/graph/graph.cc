#include "src/graph/graph.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::graph {

Graph::Graph(int num_vertices) : n_(num_vertices), out_(num_vertices), in_(num_vertices) {
  DSTRESS_CHECK(num_vertices > 0);
}

void Graph::AddEdge(int u, int v) {
  DSTRESS_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  DSTRESS_CHECK(u != v);
  if (HasEdge(u, v)) {
    return;
  }
  out_[u].push_back(v);
  in_[v].push_back(u);
  num_edges_++;
}

bool Graph::HasEdge(int u, int v) const {
  DSTRESS_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  return std::find(out_[u].begin(), out_[u].end(), v) != out_[u].end();
}

int Graph::MaxDegree() const {
  int max_degree = 0;
  for (int v = 0; v < n_; v++) {
    max_degree = std::max(max_degree, std::max(OutDegree(v), InDegree(v)));
  }
  return max_degree;
}

std::vector<std::pair<int, int>> Graph::Edges() const {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(num_edges_);
  for (int u = 0; u < n_; u++) {
    for (int v : out_[u]) {
      edges.emplace_back(u, v);
    }
  }
  return edges;
}

std::vector<int> EdgeInSlots(const Graph& g) {
  std::vector<int> slots;
  slots.reserve(static_cast<size_t>(g.num_edges()));
  for (int u = 0; u < g.num_vertices(); u++) {
    for (int v : g.OutNeighbors(u)) {
      const std::vector<int>& in = g.InNeighbors(v);
      slots.push_back(static_cast<int>(std::find(in.begin(), in.end(), u) - in.begin()));
    }
  }
  return slots;
}

std::vector<int> DegreeBuckets(const Graph& g, const std::vector<int>& thresholds) {
  std::vector<int> buckets(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); v++) {
    int degree = std::max(g.OutDegree(v), g.InDegree(v));
    int bucket = static_cast<int>(thresholds.size());  // unbounded last bucket
    for (size_t t = 0; t < thresholds.size(); t++) {
      if (degree <= thresholds[t]) {
        bucket = static_cast<int>(t);
        break;
      }
    }
    buckets[v] = bucket;
  }
  return buckets;
}

}  // namespace dstress::graph
