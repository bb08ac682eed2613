#include "src/graph/io.h"

#include <cctype>
#include <istream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>

namespace unilocal {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edges()) out << u << ' ' << v << '\n';
}

namespace {

/// Reads the next integer, which must end at whitespace or the end of the
/// input: a number run into other characters ("1+2", "3x") is malformed,
/// not two tokens.
bool read_int(std::istream& in, std::int64_t& value) {
  if (!(in >> value)) return false;
  const int next = in.peek();
  return next == std::char_traits<char>::eof() || std::isspace(next) != 0;
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::int64_t n = 0;
  std::int64_t m = 0;
  if (!read_int(in, n) || !read_int(in, m) || n < 0 || m < 0)
    throw std::runtime_error("edge list: bad header");
  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  if (n > kMaxNodes)
    throw std::runtime_error("edge list: node count " + std::to_string(n) +
                             " exceeds " + std::to_string(kMaxNodes));
  GraphBuilder builder(static_cast<NodeId>(n));
  for (std::int64_t e = 0; e < m; ++e) {
    std::int64_t u = 0;
    std::int64_t v = 0;
    if (!read_int(in, u) || !read_int(in, v))
      throw std::runtime_error("edge list: truncated or malformed edge " +
                               std::to_string(e));
    if (u < 0 || v < 0 || u >= n || v >= n)
      throw std::runtime_error("edge list: endpoint out of range");
    if (u == v) throw std::runtime_error("edge list: self-loop");
    builder.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  // Edges past the header's count would otherwise be dropped unread.
  if (!(in >> std::ws).eof())
    throw std::runtime_error("edge list: data after the header's " +
                             std::to_string(m) + " edges");
  // A header within NodeId range may still ask for more offsets than the
  // host can hold (2^31 of them take about 17 GB).
  try {
    return builder.build();
  } catch (const std::bad_alloc&) {
    throw std::runtime_error("edge list: cannot allocate " +
                             std::to_string(n) + " nodes");
  }
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
