#include "src/runtime/reference.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

/// One message: its words, owned.
using Message = std::vector<std::int64_t>;

/// rev_port[u][j] = the port of u in the adjacency list of its j-th
/// neighbour. Recomputed per run by binary search — deliberately kept as the
/// seed had it, an oracle independent of the Graph's own reverse-port array
/// the arena engine reads.
std::vector<std::vector<NodeId>> reverse_ports(const Graph& g) {
  std::vector<std::vector<NodeId>> rev(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& nbrs = g.neighbors(u);
    rev[static_cast<std::size_t>(u)].resize(nbrs.size());
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const auto& back = g.neighbors(nbrs[j]);
      const auto it = std::lower_bound(back.begin(), back.end(), u);
      rev[static_cast<std::size_t>(u)][j] =
          static_cast<NodeId>(it - back.begin());
    }
  }
  return rev;
}

struct NodeSlot {
  // The node's own state record (state_storage is over-allocated so `state`
  // can sit at the kernel's alignment, and zero-filled) and per-port words.
  std::unique_ptr<std::byte[]> state_storage;
  std::byte* state = nullptr;
  std::vector<std::int64_t> port_state;
  Rng rng{0};
  std::vector<Message> inbox;
  std::vector<char> inbox_present;
  std::vector<Message> outbox;
  std::vector<char> outbox_present;
  bool finished = false;
  std::int64_t output = 0;
  std::int64_t local_round = 0;  // local rounds executed so far
  std::int64_t finish_local = -1;
  std::int64_t finish_global = -1;
};

class ReferenceRunner {
 public:
  ReferenceRunner(const Instance& instance, const Algorithm& algorithm,
                  const RunOptions& options)
      : instance_(instance), options_(options), kernel_(algorithm.kernel()) {
    check_kernel(kernel_.get(), algorithm.name());
    const NodeId n = instance.graph.num_nodes();
    slots_.resize(static_cast<std::size_t>(n));
    rev_ = reverse_ports(instance.graph);
    const std::size_t align =
        std::max<std::size_t>(kernel_->state_align, 1);
    Rng base(options.seed);
    for (NodeId v = 0; v < n; ++v) {
      auto& slot = slots_[static_cast<std::size_t>(v)];
      const NodeId deg = instance.graph.degree(v);
      slot.state_storage = std::make_unique<std::byte[]>(
          static_cast<std::size_t>(kernel_->state_size) + align);
      const auto addr =
          reinterpret_cast<std::uintptr_t>(slot.state_storage.get());
      slot.state = slot.state_storage.get() + (align - addr % align) % align;
      slot.port_state.assign(static_cast<std::size_t>(deg) *
                                 kernel_->port_state_words,
                             0);
      if (kernel_->init_fn != nullptr) {
        NodeInit init;
        init.degree = deg;
        init.identity = instance.identities[static_cast<std::size_t>(v)];
        init.input = instance.inputs[static_cast<std::size_t>(v)];
        kernel_->init_fn(slot.state, init, kernel_->config.get());
      }
      slot.rng = base.split(static_cast<std::uint64_t>(
          instance.identities[static_cast<std::size_t>(v)]));
      slot.inbox.resize(static_cast<std::size_t>(deg));
      slot.inbox_present.assign(static_cast<std::size_t>(deg), 0);
      slot.outbox.resize(static_cast<std::size_t>(deg));
      slot.outbox_present.assign(static_cast<std::size_t>(deg), 0);
    }
  }

  // The KernelCtx transport: a fresh Message per port sent to (last write
  // wins), and receives straight out of the inbox, which no send touches.
  static void send_words(void* engine, int, NodeId node, NodeId first,
                         NodeId last, const std::int64_t* data,
                         std::size_t words) {
    auto& slot =
        static_cast<ReferenceRunner*>(engine)->slots_[static_cast<std::size_t>(
            node)];
    for (NodeId port = first; port < last; ++port) {
      slot.outbox[static_cast<std::size_t>(port)] = Message(data, data + words);
      slot.outbox_present[static_cast<std::size_t>(port)] = 1;
    }
  }
  static std::span<const std::int64_t> recv_words(void* engine, int,
                                                  NodeId node, NodeId port,
                                                  bool* present) {
    const auto& slot =
        static_cast<ReferenceRunner*>(engine)->slots_[static_cast<std::size_t>(
            node)];
    if (!slot.inbox_present[static_cast<std::size_t>(port)]) {
      *present = false;
      return {};
    }
    *present = true;
    return slot.inbox[static_cast<std::size_t>(port)];
  }

  RunResult run_simultaneous() {
    const NodeId n = instance_.graph.num_nodes();
    NodeId live = n;
    std::int64_t round = 0;
    for (; live > 0 && round < options_.max_rounds; ++round) {
      // Step every live node.
      for (NodeId v = 0; v < n; ++v) {
        auto& slot = slots_[static_cast<std::size_t>(v)];
        if (slot.finished) continue;
        step_node(v, round);
        if (slot.finished) {
          if (slot.finish_local < 0) {  // finished by its own choice
            slot.finish_local = round;
            slot.finish_global = round;
          }
          --live;
        }
      }
      deliver_all();
      if (live == 0) {
        ++round;
        break;
      }
    }
    return finalize(live, round, round);
  }

  RunResult run_synchronized(const std::vector<std::int64_t>& wake_rounds) {
    const NodeId n = instance_.graph.num_nodes();
    assert(wake_rounds.size() == static_cast<std::size_t>(n));
    // Per-directed-edge buffers: queue_[v][j][i] = what v's j-th neighbour
    // emitted towards v in that neighbour's local round i.
    std::vector<std::vector<std::deque<std::pair<char, Message>>>> queue(
        static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v)
      queue[static_cast<std::size_t>(v)].resize(
          static_cast<std::size_t>(instance_.graph.degree(v)));

    NodeId live = n;
    std::int64_t global = 0;
    std::int64_t max_wake = 0;
    for (std::int64_t w : wake_rounds) max_wake = std::max(max_wake, w);
    const std::int64_t global_cap = sat_add(
        max_wake,
        sat_add(sat_mul(4, sat_add(options_.max_rounds, 1)),
                4 * static_cast<std::int64_t>(n) + 16));
    std::vector<NodeId> eligible;
    while (live > 0 && global < global_cap) {
      eligible.clear();
      for (NodeId v = 0; v < n; ++v) {
        auto& slot = slots_[static_cast<std::size_t>(v)];
        if (slot.finished) continue;
        if (global < wake_rounds[static_cast<std::size_t>(v)]) continue;
        bool ready = true;
        const auto& nbrs = instance_.graph.neighbors(v);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const auto& other = slots_[static_cast<std::size_t>(nbrs[j])];
          if (!other.finished && other.local_round < slot.local_round) {
            ready = false;
            break;
          }
        }
        if (ready) eligible.push_back(v);
      }
      for (NodeId v : eligible) {
        auto& slot = slots_[static_cast<std::size_t>(v)];
        // Pull the messages the neighbours emitted in their local round
        // (slot.local_round - 1).
        const std::int64_t want = slot.local_round - 1;
        const auto& nbrs = instance_.graph.neighbors(v);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          slot.inbox_present[j] = 0;
          if (want < 0) continue;
          auto& q = queue[static_cast<std::size_t>(v)][j];
          if (static_cast<std::size_t>(want) < q.size() &&
              q[static_cast<std::size_t>(want)].first) {
            slot.inbox[j] = q[static_cast<std::size_t>(want)].second;
            slot.inbox_present[j] = 1;
          }
        }
        step_node_prefilled(v, slot.local_round);
        // Record what it emitted for this local round.
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          auto& q = queue[static_cast<std::size_t>(nbrs[j])]
                         [static_cast<std::size_t>(
                             rev_[static_cast<std::size_t>(v)][j])];
          if (slot.outbox_present[j]) {
            q.emplace_back(1, std::move(slot.outbox[j]));
            slot.outbox[j] = Message{};
            slot.outbox_present[j] = 0;
          } else {
            q.emplace_back(0, Message{});
          }
        }
        ++slot.local_round;
        if (slot.finished) {
          slot.finish_local = slot.local_round - 1;
          slot.finish_global = global;
          --live;
        } else if (slot.local_round >= options_.max_rounds) {
          slot.finished = true;
          slot.output = options_.default_output;
          cut_off_.push_back(v);
          slot.finish_local = options_.max_rounds;
          slot.finish_global = global;
          --live;
        }
      }
      ++global;
    }
    std::int64_t max_local = 0;
    for (const auto& slot : slots_)
      max_local = std::max(max_local, slot.local_round);
    return finalize(live, max_local, global);
  }

 private:
  void step_node(NodeId v, std::int64_t round) {
    auto& slot = slots_[static_cast<std::size_t>(v)];
    step_node_prefilled(v, round);
    ++slot.local_round;
    if (!slot.finished && slot.local_round >= options_.max_rounds) {
      slot.finished = true;
      slot.output = options_.default_output;
      cut_off_.push_back(v);
      slot.finish_local = options_.max_rounds;
      slot.finish_global = round;
    }
  }

  void step_node_prefilled(NodeId v, std::int64_t round) {
    auto& slot = slots_[static_cast<std::size_t>(v)];
    KernelCtx ctx;
    ctx.node = v;
    ctx.degree = instance_.graph.degree(v);
    ctx.identity = instance_.identities[static_cast<std::size_t>(v)];
    ctx.round = round;
    ctx.input = instance_.inputs[static_cast<std::size_t>(v)];
    ctx.rng = &slot.rng;
    ctx.state = slot.state;
    ctx.port_state = slot.port_state.empty() ? nullptr : slot.port_state.data();
    ctx.config = kernel_->config.get();
    ctx.scratch = &scratch_;
    ctx.engine = this;
    ctx.recv_fn = &ReferenceRunner::recv_words;
    ctx.send_fn = &ReferenceRunner::send_words;
    kernel_->phases[kernel_phase_index(*kernel_, round, slot.state)].fn(ctx);
    if (ctx.finished) {
      slot.finished = true;
      slot.output = ctx.output;
    }
    for (std::size_t j = 0; j < slot.outbox_present.size(); ++j) {
      if (slot.outbox_present[j]) {
        ++messages_sent_;
        max_message_words_ =
            std::max(max_message_words_,
                     static_cast<std::int64_t>(slot.outbox[j].size()));
      }
    }
  }

  void deliver_all() {
    const NodeId n = instance_.graph.num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      auto& slot = slots_[static_cast<std::size_t>(v)];
      std::fill(slot.inbox_present.begin(), slot.inbox_present.end(), 0);
    }
    for (NodeId u = 0; u < n; ++u) {
      auto& slot = slots_[static_cast<std::size_t>(u)];
      const auto& nbrs = instance_.graph.neighbors(u);
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        if (!slot.outbox_present[j]) continue;
        auto& target = slots_[static_cast<std::size_t>(nbrs[j])];
        if (!target.finished) {
          const std::size_t port =
              static_cast<std::size_t>(rev_[static_cast<std::size_t>(u)][j]);
          target.inbox[port] = std::move(slot.outbox[j]);
          target.inbox_present[port] = 1;
          slot.outbox[j] = Message{};
        }
        slot.outbox_present[j] = 0;
      }
    }
  }

  RunResult finalize(NodeId live, std::int64_t max_local, std::int64_t global) {
    RunResult result;
    const NodeId n = instance_.graph.num_nodes();
    result.outputs.resize(static_cast<std::size_t>(n));
    result.finish_rounds.resize(static_cast<std::size_t>(n));
    result.global_finish_rounds.resize(static_cast<std::size_t>(n));
    std::int64_t max_finish = -1;
    std::int64_t total_steps = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto& slot = slots_[static_cast<std::size_t>(v)];
      result.outputs[static_cast<std::size_t>(v)] =
          slot.finished ? slot.output : options_.default_output;
      result.finish_rounds[static_cast<std::size_t>(v)] =
          slot.finish_local >= 0 ? slot.finish_local : options_.max_rounds;
      result.global_finish_rounds[static_cast<std::size_t>(v)] =
          slot.finish_global >= 0 ? slot.finish_global : global;
      max_finish = std::max(max_finish,
                            result.finish_rounds[static_cast<std::size_t>(v)]);
      total_steps += slot.local_round;
    }
    result.all_finished = (live == 0 && cut_off_.empty());
    result.rounds_used = n == 0 ? 0 : std::min(max_finish + 1, max_local);
    result.global_rounds = global;
    result.messages_sent = messages_sent_;
    result.max_message_words = max_message_words_;
    result.stats.total_steps = total_steps;
    result.stats.threads = 1;
    return result;
  }

  const Instance& instance_;
  const RunOptions& options_;
  std::shared_ptr<const StepKernel> kernel_;
  std::vector<std::int64_t> scratch_;
  std::vector<NodeSlot> slots_;
  std::vector<std::vector<NodeId>> rev_;
  std::vector<NodeId> cut_off_;
  std::int64_t messages_sent_ = 0;
  std::int64_t max_message_words_ = 0;
};

}  // namespace

RunResult run_local_reference(const Instance& instance,
                              const Algorithm& algorithm,
                              const RunOptions& options) {
  ReferenceRunner runner(instance, algorithm, options);
  if (options.wake_rounds.empty()) return runner.run_simultaneous();
  return runner.run_synchronized(options.wake_rounds);
}

}  // namespace unilocal
