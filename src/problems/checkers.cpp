#include "src/problems/checkers.h"

#include "src/prune/matching_prune.h"
#include "src/runtime/kernel.h"
#include "src/runtime/runner.h"

namespace unilocal {

namespace {

/// Round 0 of both two-round checkers: announce the tentative output.
void announce(KernelCtx& ctx) { ctx.broadcast({ctx.input.back()}); }

void mis_check(KernelCtx& ctx) {
  const std::int64_t mine = ctx.input.back();
  bool member_neighbor = false;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] != 0) member_neighbor = true;
  }
  const bool bad = (mine != 0 && member_neighbor)       // independence
                   || (mine == 0 && !member_neighbor);  // maximality
  ctx.finish(bad ? 1 : 0);
}

void coloring_check(KernelCtx& ctx) {
  const std::int64_t mine = ctx.input.back();
  bool conflict = mine <= 0;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present && m[0] == mine) conflict = true;
  }
  ctx.finish(conflict ? 1 : 0);
}

std::unique_ptr<Algorithm> two_round_checker(std::string name,
                                             KernelStepFn check) {
  auto kernel = std::make_shared<StepKernel>();
  kernel->name = name;
  kernel->phases = {{"announce", announce}, {"check", check}};
  return std::make_unique<KernelAlgorithm>(std::move(name), std::move(kernel));
}

}  // namespace

std::unique_ptr<Algorithm> make_mis_checker() {
  return two_round_checker("check-mis", mis_check);
}

std::unique_ptr<Algorithm> make_coloring_checker() {
  return two_round_checker("check-coloring", coloring_check);
}

std::unique_ptr<Algorithm> make_matching_checker() {
  // P_MM's membership computation (same radius-3 information), outputting
  // the complaint bit: its complement.
  return make_matching_membership_algorithm("check-matching",
                                            /*complement=*/true);
}

std::vector<std::int64_t> run_checker(const Instance& instance,
                                      const Algorithm& checker,
                                      const std::vector<std::int64_t>& yhat) {
  Instance annotated = instance;
  for (NodeId v = 0; v < instance.num_nodes(); ++v)
    annotated.inputs[static_cast<std::size_t>(v)].push_back(
        yhat[static_cast<std::size_t>(v)]);
  return run_local(annotated, checker).outputs;
}

}  // namespace unilocal
