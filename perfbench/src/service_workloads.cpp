// The two service workloads: history_closed and heal_scale.
//
// Every workload runs whole rounds on the same generated inputs until
// its wall budget is spent. A round builds a fresh ServiceDaemon (the
// timed set-up), drives the round's requests from this one generator
// thread, waits for every completion, then -- outside the timed region
// -- drains and captures each tenant's end state. After the last round
// every capture is compared with the drive-once oracle of the same
// requests. Because every round replays the same inputs, the obs
// counter deltas of every round's timed phase must be identical; a
// mismatch fails the run.
//
// With --trace 1 the second half of the budget runs traced rounds (the
// generator also times each ServiceDaemon::submit call and samples the
// tenant's queue depth), and each tenant's requests are then replayed
// through the layers directly (replay.hpp) to split step time by layer.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "replay.hpp"
#include "selfheal/service/daemon.hpp"
#include "selfheal/service/loadgen.hpp"
#include "selfheal/util/rng.hpp"

namespace perfbench {

namespace {

namespace sh = selfheal;
using sh::service::RequestKind;
using sh::service::TimedRequest;

/// Outstanding submissions per tenant in closed loops (well below the
/// default queue_capacity of 64, so admission never refuses).
constexpr std::size_t kClosedWindow = 4;
/// Outstanding submissions while set-up builds a history.
constexpr std::size_t kSetupWindow = 8;
/// Pause between admission retries of a refused request.
constexpr std::chrono::microseconds kRetryPeriod{1000};

/// Extra daemon constructions timed per run for workloads whose set-up
/// takes well under a millisecond, so its median is steady.
constexpr std::size_t kExtraSetups = 101;

/// One service workload: per-tenant request lists plus how to drive them.
struct Plan {
  std::vector<std::vector<TimedRequest>> traces;
  /// Leading requests of each trace sent during set-up.
  std::vector<std::size_t> setup_prefix;
  std::size_t workers = 2;  // daemon worker threads
  std::size_t window = kClosedWindow;  // outstanding requests per tenant
  std::size_t extra_setups = 0;
  /// Headline latency: heal (alert) latency instead of submit latency.
  bool headline_heal = false;
  double tail_quantile = 0.99;
};

/// Completion bookkeeping shared with the daemon's worker threads.
struct Rendezvous {
  explicit Rendezvous(std::size_t n) : done_at(n), ok(n, 0), tasks(n, 0) {}
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;
  std::vector<std::size_t> outstanding;  // per tenant
  std::vector<Clock::time_point> done_at;
  std::vector<char> ok;
  std::vector<std::size_t> tasks;  // engine tasks a submission committed
};

struct Round {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t admissions = 0;  // submit() calls, refusals included
  std::uint64_t refused_queue_full = 0;
  std::uint64_t refused_byte_budget = 0;
  std::uint64_t tasks = 0;  // tasks committed by timed submissions
  Samples submit_ms, heal_ms;
  // Traced rounds only:
  Samples admit_us;
  std::size_t queue_depth_max = 0;
  std::vector<double> sojourn_us;  // per request id
  Counters counters;
  std::vector<sh::service::TenantEndState> ends;  // per tenant, after drain
};

class ServiceBench {
 public:
  ServiceBench(Plan plan, std::string name) : plan_(std::move(plan)), name_(std::move(name)) {
    for (const auto& trace : plan_.traces) {
      first_id_.push_back(frames_.size());
      for (const auto& timed : trace) {
        frames_.push_back(sh::service::encode_frame(timed.request));
        kinds_.push_back(timed.request.kind);
      }
    }
    first_id_.push_back(frames_.size());
  }

  Result run(const Options& options) {
    Result result;
    Samples setups;
    for (std::size_t i = 0; i < plan_.extra_setups; ++i) {
      const auto t0 = Clock::now();
      auto daemon = make_daemon();
      daemon->start();
      setups.add(seconds_between(t0, Clock::now()));
      daemon->stop();
    }

    const double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
    std::vector<Round> rounds = run_rounds(untraced_budget, false, result);
    std::vector<Round> traced;
    if (options.trace && result.correct) {
      traced = run_rounds(options.seconds - untraced_budget, true, result);
    }
    check_rounds(result, rounds);
    check_rounds(result, traced);

    // The headline median latency and the rates are medians over rounds,
    // so one slow round moves them little.
    Samples submit_ms, heal_ms, tasks_per_s, heals_per_s, round_p50_ms;
    double admissions = 0.0, refused = 0.0;
    for (const auto& round : rounds) {
      setups.add(round.setup_s);
      submit_ms.append(round.submit_ms);
      heal_ms.append(round.heal_ms);
      tasks_per_s.add(static_cast<double>(round.tasks) / round.timed_s);
      heals_per_s.add(static_cast<double>(round.heal_ms.count()) / round.timed_s);
      round_p50_ms.add((plan_.headline_heal ? round.heal_ms : round.submit_ms).median());
      admissions += static_cast<double>(round.admissions);
      refused += static_cast<double>(round.refused_queue_full + round.refused_byte_budget);
      result.attempted += round.requests;
      result.failed += round.failed;
    }
    const Samples& headline = plan_.headline_heal ? heal_ms : submit_ms;

    // The metrics every workload reports.
    result.set("setup_s", setups.median(), "s", setups.count());
    result.set("peak_rss_mb", first_round_rss_mb_, "MB");
    result.set("latency_p50_ms", round_p50_ms.median(), "ms", headline.count());
    result.set_quantile("latency_tail_ms", headline, plan_.tail_quantile, "ms");
    const Samples& rate = plan_.headline_heal ? heals_per_s : tasks_per_s;
    result.set("throughput_per_s", rate.median(), "1/s", rate.count());

    // The workload-specific figures, under their own names.
    result.set_quantile("submit_p50_ms", submit_ms, 0.5, "ms");
    result.set_quantile("submit_p99_ms", submit_ms, 0.99, "ms");
    result.set_quantile("heal_p50_ms", heal_ms, 0.5, "ms");
    result.set_quantile("heal_p90_ms", heal_ms, 0.90, "ms");
    result.set_quantile("heal_p99_ms", heal_ms, 0.99, "ms");
    result.set("tasks_per_s", tasks_per_s.median(), "1/s", tasks_per_s.count());
    result.set("error_frac",
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
               "ratio");
    result.set("reject_frac", admissions > 0 ? refused / admissions : 0.0, "ratio");

    const Counters& c = rounds.front().counters;
    const double media = static_cast<double>(get(c, "storage.snapshot.write_bytes") +
                                             get(c, "storage.wal.append_bytes"));
    const double all_tasks = static_cast<double>(get(c, "engine.tasks_executed"));
    result.set("media_bytes_per_task", all_tasks > 0 ? media / all_tasks : 0.0, "B");
    set_counter_metrics(result, c);

    if (options.trace && result.correct) {
      report_traced(result, traced, headline);
    }
    return result;
  }

 private:
  std::size_t tenants() const { return plan_.traces.size(); }

  std::unique_ptr<sh::service::ServiceDaemon> make_daemon() const {
    sh::service::ServiceConfig config;
    config.workers = plan_.workers;
    auto daemon = std::make_unique<sh::service::ServiceDaemon>(config);
    for (std::size_t t = 0; t < tenants(); ++t) {
      daemon->add_tenant(tenant_config(t));
    }
    return daemon;
  }

  static sh::service::TenantConfig tenant_config(std::size_t t) {
    sh::service::TenantConfig config;
    config.name = "tenant-" + std::to_string(t);
    return config;
  }

  /// Every round's end state against the drive-once oracle of the same
  /// requests; both must be strict-correct.
  void check_rounds(Result& result, const std::vector<Round>& rounds) {
    if (oracles_.empty()) {
      for (std::size_t t = 0; t < tenants(); ++t) {
        oracles_.push_back(
            sh::service::run_drive_once_oracle(tenant_config(t), plan_.traces[t]));
        if (!oracles_.back().strict_correct) {
          result.fail(name_ + ": oracle of tenant " + std::to_string(t) +
                      " is not strict-correct");
        }
      }
    }
    for (const auto& round : rounds) {
      for (std::size_t t = 0; t < round.ends.size(); ++t) {
        if (!round.ends[t].strict_correct) {
          result.fail(name_ + ": tenant " + std::to_string(t) + " is not strict-correct");
        }
        if (!round.ends[t].identical(oracles_[t])) {
          result.fail(name_ + ": tenant " + std::to_string(t) +
                      " differs from the drive-once oracle");
        }
      }
    }
  }

  std::vector<Round> run_rounds(double budget_s, bool traced, Result& result) {
    std::vector<Round> rounds;
    const auto start = Clock::now();
    do {
      rounds.push_back(run_round(traced, result));
      if (!result.correct) break;
    } while (seconds_between(start, Clock::now()) < budget_s);
    return rounds;
  }

  /// Admission, retried until accepted: the closed loops stay below the
  /// queue capacity, so a refusal would come from the global byte budget.
  void admit(sh::service::ServiceDaemon& daemon, std::size_t tenant,
             std::size_t id, const std::shared_ptr<Rendezvous>& rv,
             Round& round, bool traced) {
    const sh::service::CompletionFn done =
        [rv, id, tenant](const sh::service::Response& response) {
          const auto now = Clock::now();
          std::lock_guard<std::mutex> lock(rv->mu);
          rv->done_at[id] = now;
          rv->ok[id] = response.ok ? 1 : 0;
          rv->tasks[id] = response.tasks_executed;
          ++rv->completed;
          --rv->outstanding[tenant];
          rv->cv.notify_all();
        };
    const auto tid = static_cast<sh::service::TenantId>(tenant);
    for (;;) {
      const auto t0 = Clock::now();
      const auto ack = daemon.submit(tid, frames_[id], done);
      if (traced) {
        round.admit_us.add(us_between(t0, Clock::now()));
        round.queue_depth_max =
            std::max(round.queue_depth_max, daemon.tenant(tid).queue_depth());
      }
      ++round.admissions;
      if (ack.accepted) {
        sent_at_[id] = t0;
        return;
      }
      if (ack.reason != sh::service::RejectReason::kQueueFull &&
          ack.reason != sh::service::RejectReason::kByteBudget) {
        throw std::runtime_error(std::string("admission refused: ") + ack.reason_token());
      }
      std::this_thread::sleep_for(kRetryPeriod);
    }
  }

  /// Closed loop over ids [from[t], to[t]) of every tenant, at most
  /// `window` outstanding per tenant. Waits until all have completed.
  void drive_closed(sh::service::ServiceDaemon& daemon,
                    const std::vector<std::size_t>& from,
                    const std::vector<std::size_t>& to, std::size_t window,
                    const std::shared_ptr<Rendezvous>& rv, Round& round,
                    bool traced) {
    std::vector<std::size_t> next = from;
    std::size_t total = 0;
    for (std::size_t t = 0; t < tenants(); ++t) total += to[t] - from[t];
    const std::size_t target = rv->completed + total;
    for (;;) {
      std::vector<std::pair<std::size_t, std::size_t>> ready;  // (id, tenant)
      {
        std::unique_lock<std::mutex> lock(rv->mu);
        rv->cv.wait(lock, [&] {
          if (rv->completed >= target) return true;
          for (std::size_t t = 0; t < tenants(); ++t) {
            if (next[t] < to[t] && rv->outstanding[t] < window) return true;
          }
          return false;
        });
        if (rv->completed >= target) return;
        for (std::size_t t = 0; t < tenants(); ++t) {
          while (next[t] < to[t] && rv->outstanding[t] < window) {
            ready.emplace_back(next[t]++, t);
            ++rv->outstanding[t];
          }
        }
      }
      for (const auto& [id, tenant] : ready) admit(daemon, tenant, id, rv, round, traced);
    }
  }

  Round run_round(bool traced, Result& result) {
    Round round;
    const std::size_t n = frames_.size();
    sent_at_.assign(n, Clock::time_point{});
    if (traced) round.sojourn_us.assign(n, 0.0);
    auto rv = std::make_shared<Rendezvous>(n);
    rv->outstanding.assign(tenants(), 0);

    const auto setup_start = Clock::now();
    auto daemon = make_daemon();
    daemon->start();
    std::vector<std::size_t> from(tenants()), prefix_end(tenants()), to(tenants());
    for (std::size_t t = 0; t < tenants(); ++t) {
      from[t] = first_id_[t];
      prefix_end[t] = first_id_[t] + plan_.setup_prefix[t];
      to[t] = first_id_[t + 1];
    }
    Round setup_round;  // set-up traffic is not part of the measured samples
    drive_closed(*daemon, from, prefix_end, kSetupWindow, rv, setup_round, false);
    round.setup_s = seconds_between(setup_start, Clock::now());

    const auto before = read_counters();
    const auto start = Clock::now();
    drive_closed(*daemon, prefix_end, to, plan_.window, rv, round, traced);
    round.timed_s = seconds_between(start, Clock::now());
    round.counters = counter_delta(before, read_counters());

    // Outside the timed region from here on.
    if (!daemon->drain_all()) result.fail(name_ + ": drain_all was unclean");
    daemon->stop();
    const auto stats = daemon->stats();
    round.refused_queue_full = stats.rejected_queue_full;
    round.refused_byte_budget = stats.rejected_byte_budget;
    for (std::size_t t = 0; t < tenants(); ++t) {
      for (std::size_t id = from[t]; id < prefix_end[t]; ++id) {
        if (!rv->ok[id]) ++round.failed;  // set-up submissions are not timed
      }
      for (std::size_t id = prefix_end[t]; id < to[t]; ++id) {
        ++round.requests;
        if (!rv->ok[id]) {
          ++round.failed;
          continue;
        }
        round.tasks += rv->tasks[id];
        const double ms = ms_between(sent_at_[id], rv->done_at[id]);
        (kinds_[id] == RequestKind::kAlert ? round.heal_ms : round.submit_ms).add(ms);
        if (traced) round.sojourn_us[id] = us_between(sent_at_[id], rv->done_at[id]);
      }
      auto& tenant = daemon->tenant(static_cast<sh::service::TenantId>(t));
      round.ends.push_back(sh::service::capture_tenant_state(tenant));
      round.failed += tenant.controller().stats().alerts_lost;
    }
    if (round.failed > 0) {
      result.fail(name_ + ": " + std::to_string(round.failed) +
                  " requests ended not-ok or with a lost alert");
    }
    std::fprintf(stderr,
                 "%s round %zu%s: setup %.4g s, timed %.4g s, submit p50 %.4g ms "
                 "p90 %.4g p99 %.4g ms (n=%zu), heal p50 %.4g ms p99 %.4g ms (n=%zu)\n",
                 name_.c_str(), rounds_run_++, traced ? " (traced)" : "", round.setup_s,
                 round.timed_s, round.submit_ms.median(), round.submit_ms.quantile(0.9), round.submit_ms.quantile(0.99),
                 round.submit_ms.count(), round.heal_ms.median(), round.heal_ms.quantile(0.99),
                 round.heal_ms.count());
    if (!first_counters_.empty() && round.counters != first_counters_) {
      result.fail(name_ + ": obs counter deltas differ between rounds of one seed");
    }
    if (first_counters_.empty()) {
      first_counters_ = round.counters;
      // Peak memory of the process through its first round: later rounds
      // would add allocator fragmentation, the oracle its own world.
      first_round_rss_mb_ = peak_rss_mb();
    }
    return round;
  }

  void set_counter_metrics(Result& result, const Counters& c) const {
    const auto count = [&](const char* metric, const char* counter) {
      result.set(metric, static_cast<double>(get(c, counter)), "count");
    };
    result.set("storage.snapshot_bytes", static_cast<double>(get(c, "storage.snapshot.write_bytes")), "B");
    result.set("storage.wal_bytes", static_cast<double>(get(c, "storage.wal.append_bytes")), "B");
    count("storage.checkpoints", "storage.checkpoints");
    count("deps.full_rebuilds", "deps.full_rebuilds");
    count("deps.recovery_splices", "deps.recovery_splices");
    count("deps.incremental_appends", "deps.incremental_appends");
    count("recovery.undo_tasks", "recovery.undo_tasks");
    count("recovery.redo_tasks", "recovery.redo_tasks");
    count("recovery.reused_tasks", "recovery.reused_tasks");
    count("controller.alerts_lost", "controller.alerts_lost");
    count("controller.alerts_blocked", "controller.alerts_blocked");
    count("controller.runs_deferred", "controller.runs_deferred");
    const double reused = static_cast<double>(get(c, "recovery.reused_tasks"));
    const double redone = static_cast<double>(get(c, "recovery.redo_tasks"));
    result.set("recovery.reuse_frac",
               reused + redone > 0 ? reused / (reused + redone) : 0.0, "ratio");
  }

  /// Per-layer metrics from the traced rounds and the layered replay.
  void report_traced(Result& result, const std::vector<Round>& traced,
                     const Samples& untraced_headline) {
    Samples admit_us, traced_headline;
    std::size_t depth_max = 0;
    std::uint64_t queue_full = 0, byte_budget = 0;
    for (const auto& round : traced) {
      admit_us.append(round.admit_us);
      traced_headline.append(plan_.headline_heal ? round.heal_ms : round.submit_ms);
      depth_max = std::max(depth_max, round.queue_depth_max);
      queue_full += round.refused_queue_full;
      byte_budget += round.refused_byte_budget;
    }
    result.set_quantile("service.admit_us.p50", admit_us, 0.5, "us");
    result.set_quantile("service.admit_us.p99", admit_us, 0.99, "us");
    result.set("service.rejects.queue_full", static_cast<double>(queue_full), "count");
    result.set("service.rejects.byte_budget", static_cast<double>(byte_budget), "count");
    result.set("service.queue_depth.max", static_cast<double>(depth_max), "count");
    result.set("trace.overhead_frac",
               traced_headline.median() / untraced_headline.median() - 1.0, "ratio");

    ReplayTrace all;
    Samples queue_wait_ms;
    std::vector<double> first_tenth, last_tenth;
    for (std::size_t t = 0; t < tenants(); ++t) {
      auto replay = traced_replay(tenant_config(t), plan_.traces[t]);
      if (!replay.end_state.identical(oracles_[t])) {
        result.fail(name_ + ": traced replay of tenant " + std::to_string(t) +
                    " differs from the drive-once oracle");
      }
      // Sojourn in the traced daemon round minus this request's replayed
      // step time: what the request spent queued behind other work.
      const auto& sojourn = traced.back().sojourn_us;
      for (std::size_t i = plan_.setup_prefix[t]; i < replay.request_us.size(); ++i) {
        queue_wait_ms.add((sojourn[first_id_[t] + i] - replay.request_us[i]) / 1e3);
      }
      const std::size_t tenth = std::max<std::size_t>(replay.checkpoint_ms.size() / 10, 1);
      first_tenth.insert(first_tenth.end(), replay.checkpoint_ms.begin(),
                         replay.checkpoint_ms.begin() + tenth);
      last_tenth.insert(last_tenth.end(), replay.checkpoint_ms.end() - tenth,
                        replay.checkpoint_ms.end());
      all.step_us_total += replay.step_us_total;
      for (std::size_t l = 0; l < kLayerCount; ++l) all.layer_us[l] += replay.layer_us[l];
      all.max_step_gap_us = std::max(all.max_step_gap_us, replay.max_step_gap_us);
      all.steps += replay.steps;
      all.submit_tasks += replay.submit_tasks;
      all.parse_us.append(replay.parse_us);
      all.execute_us.append(replay.execute_us);
      all.wal_commit_us.append(replay.wal_commit_us);
      all.scan_us.append(replay.scan_us);
      all.recover_ms.append(replay.recover_ms);
      all.checkpoint_ms.insert(all.checkpoint_ms.end(), replay.checkpoint_ms.begin(),
                               replay.checkpoint_ms.end());
    }
    result.set_quantile("service.queue_wait_ms.p50", queue_wait_ms, 0.5, "ms");
    result.set_quantile("service.queue_wait_ms.p99", queue_wait_ms, 0.99, "ms");

    const double step = all.step_us_total;
    const auto share = [&](Layer layer) { return step > 0 ? all.layer_us[layer] / step : 0.0; };
    Samples checkpoint_ms;
    for (const double ms : all.checkpoint_ms) checkpoint_ms.add(ms);
    Samples first, last;
    for (const double ms : first_tenth) first.add(ms);
    for (const double ms : last_tenth) last.add(ms);

    result.set_quantile("wfspec.parse_us.p50", all.parse_us, 0.5, "us");
    result.set("wfspec.parse_share", share(kWfspec), "ratio");
    result.set("engine.execute_us_per_task",
               all.submit_tasks > 0 ? all.execute_us.sum() / static_cast<double>(all.submit_tasks) : 0.0,
               "us", all.execute_us.count());
    result.set("engine.execute_share", share(kEngine), "ratio");
    result.set_quantile("storage.checkpoint_ms.p50", checkpoint_ms, 0.5, "ms");
    result.set("storage.checkpoint_share", share(kCheckpoint), "ratio");
    result.set("storage.checkpoint_ms.last_vs_first",
               first.count() > 0 && first.median() > 0 ? last.median() / first.median() : 0.0,
               "ratio", first.count() + last.count());
    result.set_quantile("storage.wal_commit_us.p50", all.wal_commit_us, 0.5, "us");
    result.set("storage.wal_commit_share", share(kWalCommit), "ratio");
    result.set_quantile("recovery.scan_us.p50", all.scan_us, 0.5, "us");
    result.set_quantile("recovery.scan_us.p99", all.scan_us, 0.99, "us");
    result.set_quantile("recovery.recover_ms.p50", all.recover_ms, 0.5, "ms");
    result.set_quantile("recovery.recover_ms.p99", all.recover_ms, 0.99, "ms");
    result.set("recovery.share", share(kScan) + share(kRecover), "ratio");
    result.set("service.resolve_share", share(kService), "ratio");

    // The spans must account for the steps they sit in.
    double covered = 0.0;
    for (const double us : all.layer_us) covered += us;
    const double unattributed = step > 0 ? (step - covered) / step : 0.0;
    result.set("trace.unattributed_frac", unattributed, "ratio", all.steps);
    result.set("trace.max_step_gap_us", all.max_step_gap_us, "us", all.steps);
    if (unattributed > kSpanTolerance || unattributed < -kSpanTolerance) {
      result.fail(name_ + ": layer spans cover " + std::to_string(1.0 - unattributed) +
                  " of step time, outside the 1 +- " + std::to_string(kSpanTolerance) +
                  " tolerance");
    }
  }

  /// Spans must add up to the replayed step time within this fraction.
  static constexpr double kSpanTolerance = 0.02;

  Plan plan_;
  std::string name_;
  std::vector<std::string> frames_;
  std::vector<RequestKind> kinds_;
  std::vector<std::size_t> first_id_;  // per tenant, plus one past the end
  std::vector<Clock::time_point> sent_at_;  // accepted admission, per id
  std::vector<sh::service::TenantEndState> oracles_;
  Counters first_counters_;
  std::size_t rounds_run_ = 0;
  double first_round_rss_mb_ = 0.0;
};

/// Deterministic Fisher-Yates shuffle driven by util::Rng.
void shuffle_indices(std::vector<std::size_t>& items, std::uint64_t seed) {
  sh::util::Rng rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng() % i]);
  }
}

/// The MMPP storm shape of bench/service_load; the closed loops ignore
/// the arrival times and use the template and attack sequence.
sh::service::StormConfig storm_shape(std::uint64_t seed, std::size_t submissions) {
  sh::service::StormConfig storm;
  storm.seed = seed;
  storm.submissions = submissions;
  storm.burst.lambda_quiet = 2.0;
  storm.burst.lambda_burst = 24.0;
  storm.burst.quiet_to_burst = 0.15;
  storm.burst.burst_to_quiet = 1.0;
  return storm;
}

}  // namespace

Result run_history_closed(const Options& options) {
  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kSubmissions = 400;
  Plan plan;
  plan.extra_setups = kExtraSetups;
  auto storm = storm_shape(options.seed, kSubmissions);
  storm.attack_p_quiet = 0.0;
  storm.attack_p_burst = 0.0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    plan.traces.push_back(sh::service::make_tenant_trace(storm, t));
    plan.setup_prefix.push_back(0);
  }
  return ServiceBench(std::move(plan), "history_closed").run(options);
}

Result run_heal_scale(const Options& options) {
  constexpr std::size_t kWorkflows = 1000;
  auto storm = storm_shape(options.seed, kWorkflows);
  storm.attack_p_quiet = 0.3;
  storm.attack_p_burst = 0.3;
  std::vector<TimedRequest> trace;
  std::vector<std::size_t> attacked;
  for (auto& timed : sh::service::make_tenant_trace(storm, 0)) {
    if (timed.request.kind != RequestKind::kSubmitRun) continue;
    if (!timed.request.attacks.empty()) attacked.push_back(trace.size());
    trace.push_back(std::move(timed));
  }
  // The timed phase: one alert per attacked run, in a seeded order.
  shuffle_indices(attacked, options.seed);
  const std::size_t setup = trace.size();
  for (const std::size_t run : attacked) {
    TimedRequest alert;
    alert.request.kind = RequestKind::kAlert;
    alert.request.alert_run = static_cast<std::uint32_t>(run);
    trace.push_back(std::move(alert));
  }
  Plan plan;
  // One tenant can only ever be driven by one worker at a time; a second
  // worker would only add hand-offs, and split the tenant's allocations
  // between two malloc arenas so that peak RSS swung by a third between
  // identical runs.
  plan.workers = 1;
  plan.window = 1;
  plan.headline_heal = true;
  plan.tail_quantile = 0.90;
  plan.traces.push_back(std::move(trace));
  plan.setup_prefix.push_back(setup);
  return ServiceBench(std::move(plan), "heal_scale").run(options);
}

}  // namespace perfbench
