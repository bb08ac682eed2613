#include "src/algo/linial.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "src/runtime/kernel.h"
#include "src/util/math.h"

namespace unilocal {

namespace {

/// floor(k^(1/e)) computed exactly for 63-bit k.
std::int64_t int_root(std::int64_t k, int e) {
  if (k <= 1) return k;
  std::int64_t r = static_cast<std::int64_t>(
      std::pow(static_cast<double>(k), 1.0 / e));
  while (r > 1 && sat_pow(r, e) > k) --r;
  while (sat_pow(r + 1, e) <= k) ++r;
  return r;
}

/// ceil(k^(1/e)).
std::int64_t int_root_ceil(std::int64_t k, int e) {
  const std::int64_t floor_root = int_root(k, e);
  return sat_pow(floor_root, e) == k ? floor_root : floor_root + 1;
}

/// The cheapest (p, d) pair for one reduction step from a k-color space.
LinialStep choose_step(std::int64_t delta_guess, std::int64_t k) {
  LinialStep best;
  best.in_space = k;
  for (int d = 1; d <= 62; ++d) {
    const std::int64_t separation = d * std::max<std::int64_t>(delta_guess, 1) + 1;
    const std::int64_t capacity = int_root_ceil(k, d + 1);
    const std::int64_t p = static_cast<std::int64_t>(
        next_prime(static_cast<std::uint64_t>(std::max(separation, capacity))));
    if (best.prime == 0 || p < best.prime) {
      best.prime = p;
      best.degree = d;
    }
    // Larger d only raises the separation requirement once capacity stops
    // binding; stop when separation alone already exceeds the best prime.
    if (separation > best.prime && capacity <= separation) break;
  }
  best.out_space = sat_mul(best.prime, best.prime);
  return best;
}

}  // namespace

LinialSchedule linial_schedule(std::int64_t delta_guess,
                               std::int64_t initial_space) {
  LinialSchedule schedule;
  schedule.initial_space = std::max<std::int64_t>(initial_space, 1);
  std::int64_t k = schedule.initial_space;
  // Hard cap as a belt-and-braces guard; the doubly-logarithmic decay makes
  // real schedules a handful of steps long.
  for (int step = 0; step < 40; ++step) {
    LinialStep next = choose_step(delta_guess, k);
    if (next.out_space >= k) break;  // fixed point reached
    schedule.steps.push_back(next);
    k = next.out_space;
  }
  schedule.final_space = k;
  return schedule;
}

std::int64_t linial_final_space_bound(std::int64_t delta_guess) {
  const std::int64_t p =
      static_cast<std::int64_t>(next_prime(static_cast<std::uint64_t>(
          2 * std::max<std::int64_t>(delta_guess, 1) + 1)));
  return p * p;
}

std::int64_t linial_step_apply(const LinialStep& step, std::int64_t color,
                               std::span<const std::int64_t> neighbor_colors) {
  const std::int64_t p = step.prime;
  const int digits = static_cast<int>(step.degree) + 1;
  auto digits_of = [&](std::int64_t c, std::int64_t* out) {
    for (int i = 0; i < digits; ++i) {
      out[i] = c % p;
      c /= p;
    }
  };
  auto eval = [&](const std::int64_t* coeff, std::int64_t a) {
    // Horner over F_p.
    std::int64_t acc = 0;
    for (int i = digits - 1; i >= 0; --i) acc = (acc * a + coeff[i]) % p;
    return acc;
  };
  // Clamp into the step's input space (garbage is possible under bad
  // guesses; the framework tolerates arbitrary behaviour then).
  const std::int64_t clamped = ((color % step.in_space) + step.in_space) %
                               step.in_space;
  std::int64_t own[64];
  digits_of(clamped, own);
  // The base-p digits of every conflicting neighbour color (clamped the
  // same way), computed once into per-thread scratch whose capacity
  // persists across calls.
  thread_local std::vector<std::int64_t> others;
  others.resize(neighbor_colors.size() * static_cast<std::size_t>(digits));
  std::int64_t* end = others.data();
  for (std::int64_t c : neighbor_colors) {
    if (c < 0) continue;
    const std::int64_t other = ((c % step.in_space) + step.in_space) %
                               step.in_space;
    if (other == clamped) continue;
    digits_of(other, end);
    end += digits;
  }
  std::int64_t fallback = 0;
  for (std::int64_t a = 0; a < p; ++a) {
    const std::int64_t mine = eval(own, a);
    bool unique = true;
    for (const std::int64_t* coeff = others.data(); coeff != end;
         coeff += digits) {
      if (eval(coeff, a) == mine) {
        unique = false;
        break;
      }
    }
    if (unique) return a * p + mine;
    fallback = a * p + mine;
  }
  // Only reachable under bad guesses (too many conflicting neighbours);
  // any value in range is acceptable then.
  return fallback;
}

namespace {

/// Degenerate (empty-schedule) case: finish immediately with the initial
/// color.
// --- step kernel ------------------------------------------------------------

struct LinialKernelState {
  std::int64_t color;
};

void linial_kernel_init_phase(KernelCtx& ctx) {
  const auto* schedule = static_cast<const LinialSchedule*>(ctx.config);
  auto& st = ctx.state_as<LinialKernelState>();
  st.color = ctx.input.empty() ? ctx.identity : ctx.input[0];
  st.color = std::max<std::int64_t>(st.color - 1, 0) % schedule->initial_space;
  ctx.broadcast({st.color});
}

void linial_kernel_reduce(KernelCtx& ctx) {
  const auto* schedule = static_cast<const LinialSchedule*>(ctx.config);
  auto& st = ctx.state_as<LinialKernelState>();
  const std::size_t index = static_cast<std::size_t>(ctx.round - 1);
  auto& nbr = *ctx.scratch;
  nbr.assign(static_cast<std::size_t>(ctx.degree), -1);
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto m = ctx.recv(j, &present);
    if (present) nbr[static_cast<std::size_t>(j)] = m[0];
  }
  st.color = linial_step_apply(schedule->steps[index], st.color, nbr);
  if (index + 1 == schedule->length()) {
    ctx.finish(st.color + 1);  // 1-based final color
    return;
  }
  ctx.broadcast({st.color});
}

void trivial_color_kernel_step(KernelCtx& ctx) {
  const std::int64_t c = ctx.input.empty() ? ctx.identity : ctx.input[0];
  ctx.finish(std::max<std::int64_t>(c, 1));
}

std::shared_ptr<const StepKernel> make_linial_kernel(
    const LinialSchedule& schedule) {
  auto kernel = std::make_shared<StepKernel>();
  if (schedule.length() == 0) {
    kernel->name = "linial-trivial";
    kernel->phases = {kernel_phase<trivial_color_kernel_step>("finish")};
    return kernel;
  }
  kernel->name = "linial";
  kernel->state_size = sizeof(LinialKernelState);
  kernel->state_align = alignof(LinialKernelState);
  kernel->phases = {kernel_phase<linial_kernel_init_phase>("init"),
                    kernel_phase<linial_kernel_reduce>("reduce")};
  kernel->select_fn = [](std::int64_t round, const std::byte*,
                         const void*) -> std::uint16_t {
    return round == 0 ? 0 : 1;
  };
  kernel->config =
      std::shared_ptr<const void>(std::make_shared<LinialSchedule>(schedule));
  return kernel;
}

}  // namespace

LinialColoring::LinialColoring(std::int64_t delta_guess,
                               std::int64_t space_guess)
    : schedule_(linial_schedule(delta_guess, space_guess)),
      delta_guess_(delta_guess),
      kernel_(make_linial_kernel(schedule_)) {}

std::shared_ptr<const StepKernel> LinialColoring::kernel() const {
  return kernel_;
}

std::string LinialColoring::name() const {
  return "linial(D=" + std::to_string(delta_guess_) +
         ",k0=" + std::to_string(schedule_.initial_space) + ")";
}

namespace {

class LinialNonUniform final : public NonUniformAlgorithm {
 public:
  std::string name() const override { return "linial-O(D^2)-coloring"; }
  ParamSet gamma() const override {
    return {Param::kMaxDegree, Param::kMaxIdentity};
  }
  ParamSet lambda() const override {
    return {Param::kMaxDegree, Param::kMaxIdentity};
  }
  const RuntimeBound& bound() const override { return bound_; }
  std::unique_ptr<Algorithm> instantiate(
      std::span<const std::int64_t> guesses) const override {
    return std::make_unique<LinialColoring>(guesses[0],
                                            std::max<std::int64_t>(guesses[1], 1));
  }

 private:
  // Components are listed in lambda() order: Delta first, m second. The
  // schedule is at most 40 steps regardless of the space (hard cap), and
  // empirically a handful; the constant in the m-component dominates the
  // cap while keeping the component ascending.
  AdditiveBound bound_{
      {BoundComponent{"log2(D)+2",
                      [](std::int64_t d) {
                        return static_cast<double>(
                            clog2(static_cast<std::uint64_t>(
                                std::max<std::int64_t>(d, 1))) +
                            2);
                      }},
       BoundComponent{"log*(m)+42", [](std::int64_t m) {
                        return static_cast<double>(
                            log_star(static_cast<std::uint64_t>(
                                std::max<std::int64_t>(m, 2))) +
                            42);
                      }}}};
};

}  // namespace

std::unique_ptr<NonUniformAlgorithm> make_linial_coloring() {
  return std::make_unique<LinialNonUniform>();
}

}  // namespace unilocal
