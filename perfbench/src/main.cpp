// perfbench: one process runs one workload of the end-to-end benchmark.
//
//   perfbench --workload history_closed|heal_scale|capacity_sweep
//             --seed N --seconds S --trace 0|1
//
// It prints a table of every metric it measured (value, unit, sample
// count), any failed correctness check, and as its last line one JSON
// object with every metric. perfbench/run.py builds this binary and
// trims that object to the names BENCHMARK.json lists. Exit status is
// non-zero when any correctness check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "selfheal/obs/metrics.hpp"

namespace perfbench {

double Samples::sum() const {
  double total = 0.0;
  for (const double x : values_) total += x;
  return total;
}

double Samples::quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Samples::max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

Counters read_counters() {
  static const char* const kNames[] = {
      "controller.alerts_blocked",  "controller.alerts_lost",
      "controller.runs_deferred",   "ctmc.solver_iterations",
      "ctmc.spmv_count",            "ctmc.steady_solves",
      "deps.full_rebuilds",         "deps.incremental_appends",
      "deps.recovery_splices",      "engine.tasks_executed",
      "recovery.redo_tasks",        "recovery.reused_tasks",
      "recovery.undo_tasks",        "storage.checkpoints",
      "storage.snapshot.write_bytes", "storage.wal.append_bytes",
  };
  Counters out;
  for (const char* name : kNames) {
    out[name] = selfheal::obs::metrics().counter(name).value();
  }
  return out;
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) out[name] = value - get(before, name);
  return out;
}

std::uint64_t get(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

void print(const perfbench::Result& result) {
  std::printf("%-36s %16s  %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-36s %16.6g  %-6s %8zu\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  for (const auto& failure : result.failures) {
    std::printf("FAILED CHECK: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g",
                  std::isfinite(metric.value) ? metric.value : -1.0);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\", \"samples\": " + std::to_string(metric.samples) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  perfbench::Result result;
  try {
    if (options.workload == "history_closed") {
      result = perfbench::run_history_closed(options);
    } else if (options.workload == "heal_scale") {
      result = perfbench::run_heal_scale(options);
    } else if (options.workload == "capacity_sweep") {
      result = perfbench::run_capacity_sweep(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (result.attempted == 0) result.fail("no operation was attempted");
  print(result);
  return result.correct ? 0 : 1;
}
