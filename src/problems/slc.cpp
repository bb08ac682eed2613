#include "src/problems/slc.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

namespace unilocal {

namespace {
constexpr int kIndexBits = 24;
constexpr std::int64_t kIndexMask = (std::int64_t{1} << kIndexBits) - 1;
}  // namespace

std::int64_t pack_slc_color(std::int64_t k, std::int64_t j) {
  assert(k >= 1 && j >= 1 && j <= kIndexMask);
  return (k << kIndexBits) | j;
}

std::int64_t slc_color_base(std::int64_t packed) {
  return packed >> kIndexBits;
}

std::int64_t slc_color_index(std::int64_t packed) {
  return packed & kIndexMask;
}

Input make_slc_input(std::int64_t delta_hat,
                     const std::vector<std::int64_t>& packed_list) {
  Input input;
  input.reserve(packed_list.size() + 2);
  input.push_back(delta_hat);
  input.push_back(static_cast<std::int64_t>(packed_list.size()));
  input.insert(input.end(), packed_list.begin(), packed_list.end());
  return input;
}

std::int64_t slc_delta_hat(std::span<const std::int64_t> input) {
  assert(input.size() >= 2);
  return input[0];
}

std::span<const std::int64_t> slc_list(std::span<const std::int64_t> input) {
  assert(input.size() >= 2);
  const std::size_t len = static_cast<std::size_t>(input[1]);
  assert(input.size() >= 2 + len);
  return input.subspan(2, len);
}

std::vector<std::int64_t> full_slc_list(std::int64_t num_base_colors,
                                        std::int64_t delta_hat) {
  std::vector<std::int64_t> list;
  list.reserve(static_cast<std::size_t>(num_base_colors * (delta_hat + 1)));
  for (std::int64_t k = 1; k <= num_base_colors; ++k)
    for (std::int64_t j = 1; j <= delta_hat + 1; ++j)
      list.push_back(pack_slc_color(k, j));
  return list;
}

bool is_valid_slc_configuration(const Instance& instance) {
  const NodeId n = instance.num_nodes();
  if (n == 0) return true;
  std::int64_t delta_hat = -1;
  std::int64_t max_base = 0;
  for (NodeId v = 0; v < n; ++v) {
    const Input& input = instance.inputs[static_cast<std::size_t>(v)];
    if (input.size() < 2) return false;
    if (delta_hat < 0) delta_hat = slc_delta_hat(input);
    if (slc_delta_hat(input) != delta_hat) return false;  // common estimate
    if (instance.graph.degree(v) > delta_hat) return false;
    for (std::int64_t packed : slc_list(input))
      max_base = std::max(max_base, slc_color_base(packed));
  }
  for (NodeId v = 0; v < n; ++v) {
    const Input& input = instance.inputs[static_cast<std::size_t>(v)];
    std::map<std::int64_t, std::set<std::int64_t>> per_base;
    for (std::int64_t packed : slc_list(input))
      per_base[slc_color_base(packed)].insert(slc_color_index(packed));
    for (std::int64_t k = 1; k <= max_base; ++k) {
      const auto it = per_base.find(k);
      const std::size_t count = it == per_base.end() ? 0 : it->second.size();
      if (count < static_cast<std::size_t>(instance.graph.degree(v)) + 1)
        return false;
    }
  }
  return true;
}

bool SlcProblem::check(const Instance& instance,
                       const std::vector<std::int64_t>& outputs) const {
  const NodeId n = instance.num_nodes();
  if (outputs.size() != static_cast<std::size_t>(n)) return false;
  for (NodeId v = 0; v < n; ++v) {
    const auto list = slc_list(instance.inputs[static_cast<std::size_t>(v)]);
    if (std::find(list.begin(), list.end(),
                  outputs[static_cast<std::size_t>(v)]) == list.end())
      return false;
    for (NodeId u : instance.graph.neighbors(v)) {
      if (outputs[static_cast<std::size_t>(u)] ==
          outputs[static_cast<std::size_t>(v)])
        return false;
    }
  }
  return true;
}

}  // namespace unilocal
