#include "selfheal/service/world.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "selfheal/engine/session_io.hpp"
#include "selfheal/recovery/correctness.hpp"
#include "selfheal/wfspec/parser.hpp"

namespace selfheal::service {

namespace {

/// RAII WAL batch: one controller step / one request = one WAL record.
/// Destruction without commit() DISCARDS the buffered commits -- an
/// exception mid-step must leave the media at the previous step
/// boundary, never a half-step (the quarantine-with-intact-WAL
/// guarantee).
class BatchScope {
 public:
  explicit BatchScope(engine::DurableSessionStore* store) : store_(store) {
    if (store_ != nullptr) store_->begin_batch();
  }
  ~BatchScope() {
    if (store_ != nullptr && !committed_) store_->abort_batch();
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;
  void commit() {
    if (store_ != nullptr) store_->end_batch();
    committed_ = true;
  }

 private:
  engine::DurableSessionStore* store_;
  bool committed_ = false;
};

ApplyResult client_error(std::string what) {
  ApplyResult result;
  result.ok = false;
  result.error = std::move(what);
  return result;
}

std::vector<engine::Value> effective_store(const engine::Engine& engine) {
  // Final value per object under the log's EFFECTIVE schedule (the same
  // definition the chaos harness gates on): the raw live store is not
  // comparable, it retains stale physical versions of undone writes.
  std::vector<engine::Value> values;
  for (const auto id : engine.log().effective()) {
    const auto& entry = engine.log().entry(id);
    for (std::size_t i = 0; i < entry.written_objects.size(); ++i) {
      const auto object = static_cast<std::size_t>(entry.written_objects[i]);
      if (object >= values.size()) values.resize(object + 1, engine::Value{});
      values[object] = entry.written_values[i];
    }
  }
  return values;
}

}  // namespace

TenantEndState capture_end_state(engine::Engine& engine,
                                 engine::DurableSessionStore* durable,
                                 const recovery::ControllerStats& stats) {
  TenantEndState state;
  std::ostringstream session;
  engine::save_session(engine, session);
  state.session = session.str();
  if (durable != nullptr) state.wal = durable->wal();
  state.store = effective_store(engine);
  state.log_entries = engine.log().size();
  state.scans = stats.scans;
  state.recoveries = stats.recoveries;
  state.strict_correct =
      recovery::CorrectnessChecker(engine).check().strict_correct();
  return state;
}

TenantWorld::TenantWorld(TenantConfig config)
    : config_(std::move(config)),
      catalog_(std::make_unique<wfspec::ObjectCatalog>()),
      engine_(std::make_unique<engine::Engine>(config_.engine)) {
  if (config_.durable) {
    durable_ = std::make_unique<engine::DurableSessionStore>();
    durable_->checkpoint(*engine_);
    engine_->set_durability_observer(durable_.get());
  }
  controller_ = std::make_unique<recovery::SelfHealingController>(
      *engine_, config_.controller);
}

TenantWorld::~TenantWorld() {
  // The controller (and its recovery pool) must die before the engine;
  // clear the observer so late engine destruction can't touch durable_.
  controller_.reset();
  if (engine_ != nullptr) engine_->set_durability_observer(nullptr);
}

ApplyResult TenantWorld::apply(const Request& request) {
  switch (request.kind) {
    case RequestKind::kSubmitRun: return submit(request);
    case RequestKind::kAlert: return alert(request);
    case RequestKind::kQuery:
    case RequestKind::kDrain:
      break;  // read-only / seal: no engine effect
  }
  return {};
}

ApplyResult TenantWorld::submit(const Request& request) {
  // Client errors first: a spec that does not parse or an attack mark
  // naming a missing task rejects the request. The parse may already
  // have interned object names; rolling the catalog back makes the
  // rejection an exact no-op, so a node that saw the request and one
  // that installed a snapshot taken after it hold the same catalog.
  const std::size_t objects = catalog_->size();
  std::unique_ptr<wfspec::WorkflowSpec> spec;
  std::vector<std::pair<wfspec::TaskId, int>> attacks;
  try {
    spec = std::make_unique<wfspec::WorkflowSpec>(
        wfspec::parse_workflow(request.spec_dsl, *catalog_));
    for (const auto& mark : request.attacks) {
      attacks.emplace_back(spec->task_by_name(mark.task), mark.incarnation);
    }
  } catch (const std::logic_error& e) {
    catalog_->truncate(objects);
    return client_error(e.what());
  }

  BatchScope batch(durable_.get());
  const auto before = engine_->log().size();
  specs_.push_back(std::move(spec));
  // Requests apply only in NORMAL, so the run starts and executes
  // immediately -- the controller's submit_run NORMAL path, with the
  // attack marks injected between start and execution (an intruder
  // corrupts live tasks, not specs).
  ApplyResult result;
  result.run = engine_->start_run(*specs_.back());
  for (const auto& [task, incarnation] : attacks) {
    engine_->inject_malicious(result.run, task, incarnation);
  }
  engine_->run_all();
  // A submit creates catalog objects, a spec, and a fresh run -- state
  // WAL replay cannot re-create (control records only extend runs the
  // base snapshot already knows). So a submit step ends in a CHECKPOINT,
  // not a WAL record: the snapshot subsumes the open batch and re-bases
  // the log on a world that contains the new run. Later alert/recovery
  // steps touch only snapshot-known runs and stay cheap WAL appends.
  if (durable_ != nullptr) durable_->checkpoint(*engine_);
  batch.commit();
  runs_.push_back(result.run);
  result.tasks_executed = engine_->log().size() - before;
  return result;
}

ApplyResult TenantWorld::alert(const Request& request) {
  if (request.alert_run >= runs_.size()) {
    return client_error("alert for unknown run index " +
                        std::to_string(request.alert_run));
  }
  const auto run = runs_[request.alert_run];
  ids::Alert alert;
  for (const auto& entry : engine_->log().entries()) {
    if (entry.kind == engine::ActionKind::kMalicious && entry.run == run) {
      alert.malicious.push_back(entry.id);
    }
  }
  alert.report_time = static_cast<double>(engine_->log().size());
  ApplyResult result;
  result.malicious_reported = alert.malicious.size();
  // Applied only in NORMAL, so the (bounded) alert buffer is empty and
  // submission cannot lose the alert.
  controller_->submit_alert(std::move(alert));
  return result;
}

std::size_t TenantWorld::apply_step() {
  BatchScope batch(durable_.get());
  std::size_t work = 0;
  if (const auto scanned = controller_->scan_one()) {
    work = *scanned;
  } else if (const auto recovered = controller_->recover_one()) {
    work = *recovered;
  } else {
    // The controller guarantees progress outside NORMAL (a full recovery
    // buffer unblocks recover_one); reaching here is an invariant
    // violation, not a client error.
    throw std::logic_error("world: controller stalled");
  }
  batch.commit();
  return work;
}

std::size_t TenantWorld::scan() {
  // A scan mutates no engine state, so running it outside a WAL batch
  // writes nothing: the oracle's scan step commits an empty batch, which
  // emits no record either.
  return controller_->scan_one().value_or(0);
}

TenantEndState TenantWorld::capture() {
  return capture_end_state(*engine_, durable_.get(), controller_->stats());
}

std::string TenantWorld::export_state() const {
  if (controller_->state() != recovery::SystemState::kNormal) {
    throw std::logic_error("world: export requires NORMAL state");
  }
  std::ostringstream session;
  engine::save_session(*engine_, session);
  const std::string session_text = session.str();
  const std::string media =
      durable_ != nullptr ? durable_->export_media() : std::string();
  std::ostringstream out;
  out << "world v1 " << session_text.size() << " " << media.size() << " "
      << runs_.size() << "\n";
  out << session_text << media;
  for (const auto run : runs_) out << "run " << run << "\n";
  return out.str();
}

void TenantWorld::import_state(const std::string& blob) {
  const auto bad = [](const std::string& what) {
    throw std::invalid_argument("world import: " + what);
  };
  std::size_t pos = blob.find('\n');
  if (pos == std::string::npos) bad("missing header line");
  std::istringstream head(blob.substr(0, pos));
  std::string magic;
  std::string version;
  std::size_t session_bytes = 0;
  std::size_t media_bytes = 0;
  std::size_t n_runs = 0;
  if (!(head >> magic >> version >> session_bytes >> media_bytes >> n_runs) ||
      magic != "world" || version != "v1") {
    bad("bad header");
  }
  ++pos;
  if (blob.size() - pos < session_bytes + media_bytes) bad("truncated body");
  std::istringstream session_in(blob.substr(pos, session_bytes));
  pos += session_bytes;
  engine::Session session = engine::load_session(session_in);

  std::vector<engine::RunId> runs;
  runs.reserve(n_runs);
  {
    std::istringstream tail(blob.substr(pos + media_bytes));
    std::string keyword;
    engine::RunId run = 0;
    while (tail >> keyword >> run) {
      if (keyword != "run") bad("bad run line");
      runs.push_back(run);
    }
    if (runs.size() != n_runs) bad("run count mismatch");
  }

  // Commit point: from here on, replace this world wholesale.
  controller_.reset();
  if (engine_ != nullptr) engine_->set_durability_observer(nullptr);
  catalog_ = std::move(session.catalog);
  specs_ = std::move(session.specs);
  engine_ = std::move(session.engine);
  runs_ = std::move(runs);
  if (durable_ != nullptr) {
    durable_->import_media(blob.substr(pos, media_bytes));
    engine_->set_durability_observer(durable_.get());
  }
  controller_ = std::make_unique<recovery::SelfHealingController>(
      *engine_, config_.controller);
}

}  // namespace selfheal::service
