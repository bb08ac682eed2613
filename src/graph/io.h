// Minimal text I/O for graphs: a whitespace edge-list format ("n\nu v\n...")
// and Graphviz DOT export for debugging and example programs.
#pragma once

#include <iosfwd>
#include <string>

#include "src/graph/graph.h"

namespace unilocal {

/// Writes "n m" on the first line then one "u v" pair per edge.
void write_edge_list(std::ostream& out, const Graph& g);

/// Parses the format produced by write_edge_list. Throws std::runtime_error
/// starting "edge list:" on malformed input (negative ids, out-of-range
/// endpoints, self-loops, truncation, tokens that are not whole integers,
/// anything but whitespace after the header's m edges).
Graph read_edge_list(std::istream& in);

/// Round-trip helpers.
std::string to_edge_list_string(const Graph& g);
Graph from_edge_list_string(const std::string& text);

/// Graphviz export; labels[v] is optional per-node annotation.
std::string to_dot(const Graph& g, const std::vector<std::string>& labels = {});

}  // namespace unilocal
