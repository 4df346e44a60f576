// The traced replay of one tenant's requests.
//
// It drives the same public calls a service tenant makes, in the same
// step order (a request pops only in NORMAL; while not NORMAL, one
// recovery step at a time, each inside one WAL batch), and times every
// call from here:
//
//   service  -- resolving an alert's run to its malicious instances
//   wfspec   -- wfspec::parse_workflow (+ task_by_name for attack marks)
//   engine   -- Engine::start_run, inject_malicious, run_all
//   storage  -- DurableSessionStore::checkpoint; begin_batch/end_batch
//   recovery -- SelfHealingController::submit_alert + scan_one (scan),
//               recover_one (recover)
//
// Each step is also timed as a whole, so the per-layer spans can be
// checked to add up to the step. The end state must be byte-identical
// to the drive-once oracle's.
#pragma once

#include <array>
#include <vector>

#include "common.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/service/tenant.hpp"

namespace perfbench {

enum Layer : std::size_t {
  kService,
  kWfspec,
  kEngine,
  kCheckpoint,
  kWalCommit,
  kScan,
  kRecover,
  kLayerCount
};

struct ReplayTrace {
  /// Per request of the trace: wall time of every step it caused (a
  /// submit is one step; an alert is its own step plus the recovery
  /// steps that run before the next request pops).
  std::vector<double> request_us;
  /// Sum over steps of the step time, and of each layer's spans.
  double step_us_total = 0.0;
  std::array<double, kLayerCount> layer_us{};
  /// Largest |step - sum of its spans| seen on one step.
  double max_step_gap_us = 0.0;
  std::size_t steps = 0;
  std::size_t submit_tasks = 0;  // log entries committed by submit steps

  Samples parse_us;            // one per submit
  Samples execute_us;          // start_run + inject_malicious + run_all
  std::vector<double> checkpoint_ms;  // one per submit, in history order
  Samples wal_commit_us;       // one per end_batch that closed a step
  Samples scan_us;             // submit_alert + scan_one, one per alert
  Samples recover_ms;          // one per recover_one

  selfheal::service::TenantEndState end_state;
};

/// Replays `trace` through a fresh world built from `config`.
[[nodiscard]] ReplayTrace traced_replay(
    const selfheal::service::TenantConfig& config,
    const std::vector<selfheal::service::TimedRequest>& trace);

}  // namespace perfbench
