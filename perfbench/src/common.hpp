// Shared pieces of the end-to-end benchmark: options, raw-sample
// percentiles, the result record every workload fills, obs counter
// deltas, and process memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall budget for the measured rounds; every workload runs whole
  /// rounds until the budget is spent (at least `min_rounds`).
  double seconds = 10.0;
  bool trace = false;
};

/// Raw latency samples. Percentiles interpolate linearly between order
/// statistics; nothing is bucketed.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double max() const;

 private:
  std::vector<double> values_;
};

/// What one benchmark process reports. Metrics carry their sample count
/// (0 for counts and ratios) so every percentile states its basis.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Sets `name` to the p-quantile of `samples`.
  void set_quantile(const std::string& name, const Samples& samples, double p,
                    const std::string& unit) {
    set(name, samples.count() > 0 ? samples.quantile(p) : 0.0, unit,
        samples.count());
  }
  /// Records a failed correctness check; the process exits non-zero.
  void fail(const std::string& what) {
    correct = false;
    failures.push_back(what);
  }
};

/// obs counters the benchmark reads, as name -> value. Deltas of these
/// around a timed phase are deterministic for a fixed seed.
using Counters = std::map<std::string, std::uint64_t>;
[[nodiscard]] Counters read_counters();
[[nodiscard]] Counters counter_delta(const Counters& before, const Counters& after);
[[nodiscard]] std::uint64_t get(const Counters& counters, const std::string& name);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// Workloads (one per process).
Result run_history_closed(const Options& options);
Result run_heal_scale(const Options& options);
Result run_capacity_sweep(const Options& options);

}  // namespace perfbench
