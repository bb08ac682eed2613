#include "src/graph/io.h"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace unilocal {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) out << u << ' ' << v << '\n';
}

Graph read_edge_list(std::istream& in) {
  std::int64_t n = 0;
  std::int64_t m = 0;
  if (!(in >> n >> m) || n < 0 || m < 0)
    throw std::runtime_error("edge list: bad header");
  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  if (n > kMaxNodes)
    throw std::runtime_error("edge list: node count " + std::to_string(n) +
                             " exceeds " + std::to_string(kMaxNodes));
  GraphBuilder builder(static_cast<NodeId>(n));
  for (std::int64_t e = 0; e < m; ++e) {
    std::int64_t u = 0;
    std::int64_t v = 0;
    if (!(in >> u >> v)) throw std::runtime_error("edge list: truncated");
    if (u < 0 || v < 0 || u >= n || v >= n)
      throw std::runtime_error("edge list: endpoint out of range");
    if (u == v) throw std::runtime_error("edge list: self-loop");
    builder.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return builder.build();
}

std::string to_edge_list_string(const Graph& g) {
  std::ostringstream out;
  write_edge_list(out, g);
  return out.str();
}

Graph from_edge_list_string(const std::string& text) {
  std::istringstream in(text);
  return read_edge_list(in);
}

std::string to_dot(const Graph& g, const std::vector<std::string>& labels) {
  std::ostringstream out;
  out << "graph G {\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out << "  n" << v;
    if (static_cast<std::size_t>(v) < labels.size())
      out << " [label=\"" << labels[static_cast<std::size_t>(v)] << "\"]";
    out << ";\n";
  }
  for (const auto& [u, v] : g.edges())
    out << "  n" << u << " -- n" << v << ";\n";
  out << "}\n";
  return out.str();
}

}  // namespace unilocal
