// capacity_sweep: the Section VI buffer-sizing grid.
//
// Every degradation regime (degradation_by_name, with mu_k and xi_k
// decaying alike) times every buffer size from 2 to 63 (so at most
// 64 x 64 = 4096 states), at the paper's mu1 = 15, xi1 = 20 and a high
// alert rate, lambda = 8: at lambda = 1 the slow-decay regimes lose an
// alert so rarely that the hitting-time system is numerically singular
// and mean_time_to_loss has no answer. Each grid point builds the RecoveryStg, solves
// its steady state, reads the loss probability and the mean time to
// loss. A sweep runs the grid through util::parallel_for_index on
// kThreads threads; sweeps repeat until the wall budget is spent.
//
// Set-up is building the grid plus a warm-up solve of its largest point
// on every sweep thread (the first solves on fresh threads pay for their
// allocator arenas). A serial pass, outside the timed region, is the reference every
// timed sweep must match exactly; it also gives the runner's wall-time
// speed-up over serial.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "selfheal/ctmc/recovery_stg.hpp"
#include "selfheal/util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace ctmc = selfheal::ctmc;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kMinBuffer = 2;
constexpr std::size_t kMaxBuffer = 63;
constexpr std::size_t kSetups = 11;
constexpr double kLambda = 8.0;
const std::array<const char*, 6> kRegimes = {"const", "sqrt", "inv", "inv2", "log", "lin"};

struct Point {
  const char* regime = "";
  std::size_t buffer = 0;
};

struct Answer {
  double loss = 0.0;
  double normal = 0.0;
  double mttl = 0.0;
  bool solved = false;
  bool operator==(const Answer&) const = default;
};

/// Per-point wall times of one sweep, split by call.
struct Timing {
  double total_ms = 0.0;
  double build_ms = 0.0;
  double steady_ms = 0.0;
  double mttl_ms = 0.0;
};

std::vector<Point> make_grid() {
  std::vector<Point> grid;
  for (const char* regime : kRegimes) {
    for (std::size_t b = kMinBuffer; b <= kMaxBuffer; ++b) grid.push_back({regime, b});
  }
  return grid;
}

Answer solve(const Point& point, Timing& timing) {
  ctmc::RecoveryStgConfig config;
  config.lambda = kLambda;
  config.f = ctmc::degradation_by_name(point.regime);
  config.g = ctmc::degradation_by_name(point.regime);
  config.alert_buffer = point.buffer;
  config.recovery_buffer = point.buffer;
  Answer answer;
  const auto t0 = Clock::now();
  const ctmc::RecoveryStg stg(config);
  const auto t1 = Clock::now();
  const auto pi = stg.steady_state();
  const auto t2 = Clock::now();
  const auto mttl = stg.mean_time_to_loss();
  const auto t3 = Clock::now();
  if (pi && mttl) {
    answer.solved = true;
    answer.loss = stg.loss_probability(*pi);
    answer.normal = stg.normal_probability(*pi);
    answer.mttl = *mttl;
  }
  timing = {ms_between(t0, t3), ms_between(t0, t1), ms_between(t1, t2),
            ms_between(t2, t3)};
  return answer;
}

struct Sweep {
  std::vector<Answer> answers;
  std::vector<Timing> timings;
  double wall_s = 0.0;
  Counters counters;
};

Sweep run_sweep(const std::vector<Point>& grid, std::size_t threads) {
  Sweep sweep;
  sweep.answers.resize(grid.size());
  sweep.timings.resize(grid.size());
  const auto before = read_counters();
  const auto t0 = Clock::now();
  selfheal::util::parallel_for_index(threads, grid.size(), [&](std::size_t i) {
    sweep.answers[i] = solve(grid[i], sweep.timings[i]);
  });
  sweep.wall_s = seconds_between(t0, Clock::now());
  sweep.counters = counter_delta(before, read_counters());
  return sweep;
}

}  // namespace

Result run_capacity_sweep(const Options& options) {
  Result result;
  const std::size_t threads =
      std::min<std::size_t>(kThreads, std::max(1u, std::thread::hardware_concurrency()));

  Samples setups;
  std::vector<Point> grid;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    grid = make_grid();
    selfheal::util::parallel_for_index(threads, threads, [&](std::size_t) {
      Timing warm;
      (void)solve(grid.back(), warm);
    });
    setups.add(seconds_between(t0, Clock::now()));
  }

  const Sweep serial = run_sweep(grid, 1);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!serial.answers[i].solved) {
      result.fail(std::string("capacity_sweep: no steady state or loss time for ") +
                  grid[i].regime + " buffer " + std::to_string(grid[i].buffer));
    }
  }

  // The workload has no random inputs; the seed only rotates which
  // point each thread starts on, so the runner sees a different claim
  // order per seed while the answers stay fixed.
  const std::size_t shift = options.seed % grid.size();
  std::vector<Point> order = grid;
  std::rotate(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(shift), order.end());

  Samples point_ms, build_ms, steady_ms, mttl_ms, sweep_s;
  const auto start = Clock::now();
  do {
    const Sweep sweep = run_sweep(order, threads);
    result.attempted += order.size();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Answer& expected = serial.answers[(i + shift) % grid.size()];
      if (!(sweep.answers[i] == expected)) {
        ++result.failed;
        result.fail(std::string("capacity_sweep: parallel answer differs from serial for ") +
                    order[i].regime + " buffer " + std::to_string(order[i].buffer));
      }
      point_ms.add(sweep.timings[i].total_ms);
      build_ms.add(sweep.timings[i].build_ms);
      steady_ms.add(sweep.timings[i].steady_ms);
      mttl_ms.add(sweep.timings[i].mttl_ms);
    }
    if (sweep.counters != serial.counters) {
      result.fail("capacity_sweep: ctmc counter deltas differ between sweeps");
    }
    std::fprintf(stderr, "capacity_sweep sweep %zu: %.4g s\n", sweep_s.count(), sweep.wall_s);
    sweep_s.add(sweep.wall_s);
  } while (result.correct && seconds_between(start, Clock::now()) < options.seconds);

  result.set("setup_s", setups.median(), "s", setups.count());
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set_quantile("latency_p50_ms", point_ms, 0.5, "ms");
  result.set_quantile("latency_tail_ms", point_ms, 0.99, "ms");
  // Rates use the median sweep, so one slow sweep moves them little.
  const double solves_per_s = static_cast<double>(grid.size()) / sweep_s.median();
  result.set("throughput_per_s", solves_per_s, "1/s", sweep_s.count());
  result.set("solves_per_s", solves_per_s, "1/s", sweep_s.count());
  result.set("error_frac", static_cast<double>(result.failed) / static_cast<double>(result.attempted),
             "ratio");

  result.set_quantile("ctmc.build_ms.p50", build_ms, 0.5, "ms");
  result.set_quantile("ctmc.steady_ms.p50", steady_ms, 0.5, "ms");
  result.set_quantile("ctmc.mttl_ms.p50", mttl_ms, 0.5, "ms");
  for (const char* name : {"ctmc.steady_solves", "ctmc.spmv_count", "ctmc.solver_iterations"}) {
    result.set(name, static_cast<double>(get(serial.counters, name)), "count");
  }
  result.set("sweep.speedup_vs_serial", serial.wall_s / sweep_s.median(), "ratio",
             sweep_s.count());
  result.set("sweep.threads", static_cast<double>(threads), "count");
  return result;
}

}  // namespace perfbench
