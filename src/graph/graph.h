// Directed graph model for DStress vertex programs.
//
// A directed edge (u, v) means u sends one message to v per iteration (and
// both endpoints know the edge exists — the paper's edge-knowledge model,
// §2). The runtime enforces a public degree bound D: vertices with fewer
// than D in-neighbors receive no-op messages in the remaining slots, and
// the update circuit always has exactly D message inputs and outputs
// (§3.6). Properties attached to edges/vertices (debts, cross-holdings)
// live with the applications in src/finance.
#ifndef SRC_GRAPH_GRAPH_H_
#define SRC_GRAPH_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace dstress::graph {

class Graph {
 public:
  explicit Graph(int num_vertices);

  int num_vertices() const { return n_; }
  int num_edges() const { return num_edges_; }

  // Adds the directed edge (u, v); duplicate adds are ignored.
  void AddEdge(int u, int v);
  bool HasEdge(int u, int v) const;

  const std::vector<int>& OutNeighbors(int v) const { return out_[v]; }
  const std::vector<int>& InNeighbors(int v) const { return in_[v]; }
  int OutDegree(int v) const { return static_cast<int>(out_[v].size()); }
  int InDegree(int v) const { return static_cast<int>(in_[v].size()); }

  // Maximum of in- and out-degree over all vertices: the smallest valid
  // public degree bound D.
  int MaxDegree() const;

  // All directed edges in deterministic (u, then insertion) order. This
  // ordering doubles as the global edge index used for communication-phase
  // scheduling.
  std::vector<std::pair<int, int>> Edges() const;

 private:
  int n_;
  int num_edges_ = 0;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
};

// For every edge in Edges() order, its slot in the destination's in-list:
// edge e = (u, v) arrives at InNeighbors(v)[slots[e]]. One search of v's
// in-list per edge, O(E·D); callers that walk edges on every step compute
// it once instead of searching neighbor lists per edge and step.
std::vector<int> EdgeInSlots(const Graph& g);

// §3.7 degree bucketing: assigns each vertex the smallest bucket whose
// threshold covers the vertex's max degree. thresholds must be ascending;
// the last bucket is unbounded. Returns the bucket index per vertex.
std::vector<int> DegreeBuckets(const Graph& g, const std::vector<int>& thresholds);

}  // namespace dstress::graph

#endif  // SRC_GRAPH_GRAPH_H_
