#include "graph/dwg.hpp"

#include <algorithm>
#include <unordered_map>

namespace treesat {

VertexId Dwg::add_vertex() {
  const VertexId id{out_.size()};
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

EdgeId Dwg::add_edge(VertexId u, VertexId v, double sigma, double beta, Colour colour) {
  TS_REQUIRE(u.valid() && u.index() < out_.size(), "add_edge: bad source vertex " << u);
  TS_REQUIRE(v.valid() && v.index() < out_.size(), "add_edge: bad target vertex " << v);
  TS_REQUIRE(sigma >= 0.0, "add_edge: negative sum weight " << sigma);
  TS_REQUIRE(beta >= 0.0, "add_edge: negative bottleneck weight " << beta);
  TS_REQUIRE(colour >= kUncoloured, "add_edge: bad colour " << colour);
  const EdgeId id{edges_.size()};
  edges_.push_back(DwgEdge{u, v, sigma, beta, colour});
  out_[u.index()].push_back(id);
  in_[v.index()].push_back(id);
  return id;
}

double path_sum_weight(const Dwg& g, std::span<const EdgeId> path) {
  double s = 0.0;
  for (const EdgeId e : path) s += g.edge(e).sigma;
  return s;
}

double path_bottleneck_max(const Dwg& g, std::span<const EdgeId> path) {
  double b = 0.0;
  for (const EdgeId e : path) b = std::max(b, g.edge(e).beta);
  return b;
}

double path_bottleneck_coloured(const Dwg& g, std::span<const EdgeId> path) {
  double best = 0.0;
  std::unordered_map<Colour, double> per_colour;
  for (const EdgeId eid : path) {
    const DwgEdge& e = g.edge(eid);
    if (e.colour == kUncoloured) {
      best = std::max(best, e.beta);
    } else {
      best = std::max(best, per_colour[e.colour] += e.beta);
    }
  }
  return best;
}

Path make_path(const Dwg& g, std::vector<EdgeId> edges, VertexId s, VertexId t, bool coloured) {
  VertexId at = s;
  for (const EdgeId eid : edges) {
    TS_REQUIRE(eid.valid() && eid.index() < g.edge_count(), "make_path: bad edge id " << eid);
    const DwgEdge& e = g.edge(eid);
    TS_REQUIRE(e.from == at, "make_path: edge " << eid << " starts at " << e.from
                                                << ", expected " << at);
    at = e.to;
  }
  TS_REQUIRE(at == t, "make_path: path ends at " << at << ", expected " << t);
  Path p;
  p.s_weight = path_sum_weight(g, edges);
  p.b_weight = coloured ? path_bottleneck_coloured(g, edges) : path_bottleneck_max(g, edges);
  p.coloured_b = coloured;
  p.edges = std::move(edges);
  return p;
}

}  // namespace treesat
