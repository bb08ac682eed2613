// The Strong List-Coloring problem (SLC) defined in the proof of the
// paper's Theorem 5. An SLC configuration gives every node
//   * a common degree estimate Delta_hat >= Delta(G), and
//   * a list L(v) of colors (k, j) in [1, g(Delta_hat)] x [1, Delta_hat+1]
//     containing, for every base color k, at least deg(v)+1 distinct pairs.
// A solution colors every node from its list, properly.
//
// Wire format: an SLC color (k, j) is packed into one int64 as
// (k << 24) | j (so j < 2^24); a node input is
//   [Delta_hat, |L|, packed colors ...].
#pragma once

#include <span>

#include "src/problems/problem.h"

namespace unilocal {

std::int64_t pack_slc_color(std::int64_t k, std::int64_t j);
std::int64_t slc_color_base(std::int64_t packed);   // k
std::int64_t slc_color_index(std::int64_t packed);  // j

/// Builds the node input [Delta_hat, |list|, list...].
Input make_slc_input(std::int64_t delta_hat,
                     const std::vector<std::int64_t>& packed_list);

std::int64_t slc_delta_hat(std::span<const std::int64_t> input);
/// View of the packed list inside an input built by make_slc_input; it
/// borrows the input's storage, so a temporary input is refused.
std::span<const std::int64_t> slc_list(std::span<const std::int64_t> input);
std::span<const std::int64_t> slc_list(Input&& input) = delete;

/// The full list [1, num_base_colors] x [1, delta_hat + 1] every node of a
/// fresh layer receives (paper: L''_i).
std::vector<std::int64_t> full_slc_list(std::int64_t num_base_colors,
                                        std::int64_t delta_hat);

/// Checks the *configuration* invariants (common Delta_hat >= Delta; every
/// list has >= deg(v)+1 entries of every base color in [1, g_hat] where
/// g_hat is the max base color appearing anywhere). The pruning algorithm
/// P_SLC must preserve this (tested).
bool is_valid_slc_configuration(const Instance& instance);

class SlcProblem final : public Problem {
 public:
  std::string name() const override { return "strong-list-coloring"; }
  /// Solution: proper coloring with y(v) in L(v) for all v.
  bool check(const Instance& instance,
             const std::vector<std::int64_t>& outputs) const override;
};

}  // namespace unilocal
