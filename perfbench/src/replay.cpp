#include "replay.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "selfheal/engine/durable_session.hpp"
#include "selfheal/engine/engine.hpp"
#include "selfheal/recovery/controller.hpp"
#include "selfheal/wfspec/object_catalog.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace perfbench {

namespace {

namespace sh = selfheal;

/// One step: an outer clock around the whole step and one accumulator
/// per layer for the spans inside it.
class Step {
 public:
  explicit Step(ReplayTrace& trace) : trace_(trace), start_(Clock::now()) {}

  /// Times `call` as a span of `layer`; returns its duration in us.
  template <typename Fn>
  double span(Layer layer, Fn&& call) {
    const auto t0 = Clock::now();
    call();
    const double us = us_between(t0, Clock::now());
    spans_[layer] += us;
    return us;
  }

  /// Closes the step; returns its wall time in us.
  double finish() {
    const double step_us = us_between(start_, Clock::now());
    double covered = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      trace_.layer_us[l] += spans_[l];
      covered += spans_[l];
    }
    trace_.step_us_total += step_us;
    trace_.max_step_gap_us =
        std::max(trace_.max_step_gap_us, std::abs(step_us - covered));
    ++trace_.steps;
    return step_us;
  }

 private:
  ReplayTrace& trace_;
  Clock::time_point start_;
  std::array<double, kLayerCount> spans_{};
};

class TracedWorld {
 public:
  TracedWorld(const sh::service::TenantConfig& config, ReplayTrace& trace)
      : trace_(trace),
        catalog_(std::make_unique<sh::wfspec::ObjectCatalog>()),
        engine_(std::make_unique<sh::engine::Engine>(config.engine)) {
    if (config.durable) {
      durable_ = std::make_unique<sh::engine::DurableSessionStore>();
      durable_->checkpoint(*engine_);
      engine_->set_durability_observer(durable_.get());
    }
    controller_ = std::make_unique<sh::recovery::SelfHealingController>(
        *engine_, config.controller);
  }

  ~TracedWorld() {
    controller_.reset();
    engine_->set_durability_observer(nullptr);
  }

  bool normal() const {
    return controller_->state() == sh::recovery::SystemState::kNormal;
  }

  double submit(const sh::service::Request& request) {
    Step step(trace_);
    std::unique_ptr<sh::wfspec::WorkflowSpec> spec;
    std::vector<std::pair<sh::wfspec::TaskId, int>> attacks;
    trace_.parse_us.add(step.span(kWfspec, [&] {
      spec = std::make_unique<sh::wfspec::WorkflowSpec>(
          sh::wfspec::parse_workflow(request.spec_dsl, *catalog_));
      for (const auto& mark : request.attacks) {
        attacks.emplace_back(spec->task_by_name(mark.task), mark.incarnation);
      }
    }));
    specs_.push_back(std::move(spec));
    const auto before = engine_->log().size();
    step.span(kWalCommit, [&] { begin_batch(); });
    sh::engine::RunId run = 0;
    trace_.execute_us.add(step.span(kEngine, [&] {
      run = engine_->start_run(*specs_.back());
      for (const auto& [task, incarnation] : attacks) {
        engine_->inject_malicious(run, task, incarnation);
      }
      engine_->run_all();
    }));
    const double checkpoint_us = step.span(kCheckpoint, [&] {
      if (durable_ != nullptr) durable_->checkpoint(*engine_);
    });
    trace_.checkpoint_ms.push_back(checkpoint_us / 1e3);
    // The checkpoint subsumed the open batch; this end_batch emits nothing.
    step.span(kWalCommit, [&] { end_batch(); });
    runs_.push_back(run);
    trace_.submit_tasks += engine_->log().size() - before;
    return step.finish();
  }

  double alert(const sh::service::Request& request) {
    Step step(trace_);
    sh::ids::Alert alert;
    step.span(kService, [&] {
      const auto run = runs_.at(request.alert_run);
      for (const auto& entry : engine_->log().entries()) {
        if (entry.kind == sh::engine::ActionKind::kMalicious && entry.run == run) {
          alert.malicious.push_back(entry.id);
        }
      }
      alert.report_time = static_cast<double>(engine_->log().size());
    });
    trace_.scan_us.add(step.span(kScan, [&] {
      controller_->submit_alert(std::move(alert));
      (void)controller_->scan_one();
    }));
    return step.finish();
  }

  double recovery_step() {
    Step step(trace_);
    step.span(kWalCommit, [&] { begin_batch(); });
    bool scanned = false;
    step.span(kScan, [&] { scanned = controller_->scan_one().has_value(); });
    if (!scanned) {
      bool recovered = false;
      trace_.recover_ms.add(step.span(kRecover, [&] {
        recovered = controller_->recover_one().has_value();
      }) / 1e3);
      if (!recovered) throw std::logic_error("replay: controller stalled");
    }
    trace_.wal_commit_us.add(step.span(kWalCommit, [&] { end_batch(); }));
    return step.finish();
  }

  sh::service::TenantEndState capture() {
    return sh::service::capture_end_state(*engine_, durable_.get(),
                                          controller_->stats());
  }

 private:
  void begin_batch() {
    if (durable_ != nullptr) durable_->begin_batch();
  }
  void end_batch() {
    if (durable_ != nullptr) durable_->end_batch();
  }

  ReplayTrace& trace_;
  std::unique_ptr<sh::wfspec::ObjectCatalog> catalog_;
  std::vector<std::unique_ptr<sh::wfspec::WorkflowSpec>> specs_;
  std::unique_ptr<sh::engine::Engine> engine_;
  std::unique_ptr<sh::engine::DurableSessionStore> durable_;
  std::unique_ptr<sh::recovery::SelfHealingController> controller_;
  std::vector<sh::engine::RunId> runs_;
};

}  // namespace

ReplayTrace traced_replay(const sh::service::TenantConfig& config,
                          const std::vector<sh::service::TimedRequest>& trace) {
  ReplayTrace out;
  out.request_us.assign(trace.size(), 0.0);
  {
    TracedWorld world(config, out);
    std::size_t last_alert = trace.size();
    const auto heal_to_normal = [&] {
      while (!world.normal()) {
        const double us = world.recovery_step();
        if (last_alert < trace.size()) out.request_us[last_alert] += us;
      }
    };
    for (std::size_t i = 0; i < trace.size(); ++i) {
      heal_to_normal();
      const auto& request = trace[i].request;
      switch (request.kind) {
        case sh::service::RequestKind::kSubmitRun:
          out.request_us[i] += world.submit(request);
          break;
        case sh::service::RequestKind::kAlert:
          out.request_us[i] += world.alert(request);
          last_alert = i;
          break;
        case sh::service::RequestKind::kQuery:
        case sh::service::RequestKind::kDrain:
          break;
      }
    }
    heal_to_normal();
    out.end_state = world.capture();
  }
  return out;
}

}  // namespace perfbench
