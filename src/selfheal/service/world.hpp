// One tenant's state machine: the single copy of the step code that the
// service daemon, the drive-once oracle, and every replica run.
//
// TenantWorld owns exactly what one tenant's semantics need -- object
// catalog, specs, engine, self-healing controller, and (by default) a
// DurableSessionStore -- with none of the service machinery (no queues,
// no scheduler, no threads). The daemon's Tenant (tenant.hpp) wraps one
// in a queue; run_drive_once_oracle (loadgen.hpp) and every
// replication::ReplicaNode drive one directly. The step contract:
//
//   * apply(request)  -- one request in arrival order, called only in
//     NORMAL (Theorem 4's blocking discipline: callers heal first). A
//     submit parses, starts, attacks, and runs the workflow, then
//     checkpoints (the WAL cannot replay spec/run creation); an alert
//     submits the run's malicious instances to the controller;
//     query/drain have no engine effect.
//   * apply_step()    -- one controller recovery step (scan_one, else
//     recover_one) inside a WAL batch: one step, one WAL record.
//   * scan()          -- the daemon's alert step runs the alert's scan
//     at once. A scan reads the engine and never writes it, so this
//     moves alert-to-plan latency only: the oracle and the replicas
//     leave it to their next apply_step, and the bytes agree.
//
// Client errors -- a spec that does not parse, an attack mark naming a
// missing task, an alert for an unknown run index -- are classified in
// apply() before anything mutates, and every caller applies them as the
// same no-op (ApplyResult::ok == false). Every WAL batch is scoped: an
// exception mid-step discards it, so the media keeps only whole steps.
//
// Replaying the same command sequence through any TenantWorld yields
// byte-identical session text, WAL, and effective store. That is the
// property both the service oracle gate and the replication layer's
// quorum/oracle gate rest on.
//
// export_state()/import_state() serialise the complete world (session
// text + durable media + run index) for replica snapshot transfer; both
// are only legal at a NORMAL boundary, where the controller queues are
// empty and the world is fully described by its durable artifacts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/engine/value.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/service/request.hpp"
#include "selfheal/wfspec/object_catalog.hpp"

namespace selfheal::service {

struct TenantConfig {
  std::string name = "tenant";
  /// Weighted round-robin share: a tenant's deficit grows by
  /// weight * quantum_units per scheduling turn.
  std::uint32_t weight = 1;
  /// Bounded request queue: admission rejects with "queue_full" beyond
  /// this many queued requests.
  std::size_t queue_capacity = 64;
  engine::EngineConfig engine;
  /// Service tenants default to batched alerts: any alerts simultaneous
  /// in the controller queue merge into ONE frontier expansion (a single
  /// scan over the union of their malicious sets). The drive-once oracle
  /// consumes the same config, so the gate covers the batching path.
  recovery::ControllerConfig controller = [] {
    recovery::ControllerConfig c;
    c.batch_alerts = true;
    return c;
  }();
  /// Attach a DurableSessionStore (checkpoint at birth, one WAL record
  /// per step). Off for throwaway tenants in micro-tests.
  bool durable = true;
};

/// Everything the byte-identity gate compares, captured after a drain.
struct TenantEndState {
  std::string session;                // session_io text of the live engine
  std::string wal;                    // DurableSessionStore WAL bytes
  std::vector<engine::Value> store;   // final value per object (effective)
  std::size_t log_entries = 0;
  std::size_t scans = 0;
  std::size_t recoveries = 0;
  bool strict_correct = false;        // Definition 2 via CorrectnessChecker

  /// The gate: byte-identical durable + live state.
  [[nodiscard]] bool identical(const TenantEndState& other) const {
    return session == other.session && wal == other.wal &&
           store == other.store;
  }
};

/// The capture primitive behind TenantWorld::capture, shared with
/// callers that hold an engine of their own.
[[nodiscard]] TenantEndState capture_end_state(
    engine::Engine& engine, engine::DurableSessionStore* durable,
    const recovery::ControllerStats& stats);

/// What one applied request produced: the fields a Response carries.
struct ApplyResult {
  bool ok = true;
  std::string error;  // the client error when !ok
  engine::RunId run = -1;               // submit: the started run
  std::size_t tasks_executed = 0;       // submit: log entries committed
  std::size_t malicious_reported = 0;   // alert: instances reported
};

class TenantWorld {
 public:
  explicit TenantWorld(TenantConfig config);
  ~TenantWorld();

  TenantWorld(const TenantWorld&) = delete;
  TenantWorld& operator=(const TenantWorld&) = delete;

  /// Handles one request in arrival order (see the contract above).
  /// Client errors return ok == false and change nothing.
  ApplyResult apply(const Request& request);

  /// One controller step (scan_one, else recover_one) inside a WAL
  /// batch; returns its work units. Throws std::logic_error if the
  /// controller has nothing to do.
  std::size_t apply_step();

  /// Runs a pending scan now; returns its work units (0 if none). Read-
  /// only on the engine, so it never changes the durable bytes.
  std::size_t scan();

  [[nodiscard]] const TenantConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] recovery::SystemState state() const {
    return controller_->state();
  }
  [[nodiscard]] bool normal() const {
    return state() == recovery::SystemState::kNormal;
  }
  [[nodiscard]] std::size_t runs() const { return runs_.size(); }
  [[nodiscard]] engine::Engine& engine() { return *engine_; }
  [[nodiscard]] const engine::Engine& engine() const { return *engine_; }
  [[nodiscard]] recovery::SelfHealingController& controller() {
    return *controller_;
  }
  [[nodiscard]] const recovery::ControllerStats& stats() const {
    return controller_->stats();
  }
  /// Null when TenantConfig::durable is false.
  [[nodiscard]] engine::DurableSessionStore* durable() {
    return durable_.get();
  }

  /// End state for the byte-identity gate (session + WAL + store).
  [[nodiscard]] TenantEndState capture();

  /// Serialises the complete world. Only legal in NORMAL state.
  [[nodiscard]] std::string export_state() const;
  /// Replaces this world with an export_state() blob: the imported
  /// world's future applies are byte-identical to the source's. Throws
  /// std::invalid_argument on malformed input.
  void import_state(const std::string& blob);

 private:
  ApplyResult submit(const Request& request);
  ApplyResult alert(const Request& request);

  TenantConfig config_;
  std::unique_ptr<wfspec::ObjectCatalog> catalog_;
  std::vector<std::unique_ptr<wfspec::WorkflowSpec>> specs_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::DurableSessionStore> durable_;
  std::unique_ptr<recovery::SelfHealingController> controller_;
  std::vector<engine::RunId> runs_;  // n-th submission -> engine RunId
};

}  // namespace selfheal::service
