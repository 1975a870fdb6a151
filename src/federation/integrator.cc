#include "federation/integrator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "engine/executor.h"

namespace fedcal {

/// One global-plan option in flight: per-fragment tickets, timers, and the
/// barrier bookkeeping that decides when the attempt succeeds, fails over,
/// or waits for a hedge.
///
/// The attempt also carries its full execution context (compiled query,
/// current option index, retry/exec state, completion callback) so the
/// mid-query re-route controller can re-enter it from a deferred epoch
/// notification without a captured closure. `compiled.options` holds the
/// *current* prices: a switch refreshes them, so re-dispatched fragments
/// derive deadlines from what the calibrator believes now.
struct Integrator::Attempt {
  CompiledQuery compiled;
  size_t option_index = 0;  ///< option the remainder currently follows
  std::shared_ptr<std::vector<std::string>> failed_servers;
  size_t retries = 0;
  std::shared_ptr<ExecState> state;
  Callback done;
  SimTime started_at = 0.0;
  bool deadlines_on = false;
  bool hedging_on = false;

  uint64_t span = 0;        ///< this attempt's trace span
  size_t remaining = 0;     ///< fragments not yet resolved
  bool settled = false;     ///< merge started or failover initiated
  bool failed = false;
  bool epoch_eval_pending = false;  ///< coalesces same-instant epoch bumps
  Status first_error;
  std::string failed_server;
  std::vector<TablePtr> tables;
  /// Per-fragment operator profiles from the winning tickets (null entries
  /// where the server ran with profiling off — an old-format reply).
  std::vector<std::shared_ptr<obs::OperatorProfile>> profiles;
  std::vector<double> observed_seconds;  ///< per-fragment server seconds
  std::vector<FragmentTicketPtr> primary;
  std::vector<FragmentTicketPtr> hedge;
  std::vector<std::string> primary_servers;  ///< server per live primary
  std::vector<std::string> hedge_servers;    ///< server per issued hedge
  std::vector<char> fragment_done;
  std::vector<int> outstanding;   ///< live tickets per fragment
  std::vector<int> dispatch_gen;  ///< bumped when a switch re-dispatches
  std::vector<ExecutionContext::EventId> deadline_timers;
  std::vector<ExecutionContext::EventId> hedge_timers;
};

Integrator::Integrator(GlobalCatalog* catalog, MetaWrapper* meta_wrapper,
                       ExecutionContext* sim, IiConfig config)
    : catalog_(catalog),
      meta_wrapper_(meta_wrapper),
      sim_(sim),
      config_(config),
      patroller_(sim),
      optimizer_(catalog, meta_wrapper,
                 IiProfile{config.configured_speed}),
      plan_cache_(config.plan_cache_capacity),
      last_catalog_version_(catalog != nullptr ? catalog->version() : 0) {
  // Every epoch bump — QCC-driven or catalog-driven — surfaces as one
  // structured event from the cache itself, and wakes the re-route
  // controller for every in-flight query.
  plan_cache_.SetEpochObserver([this](uint64_t epoch,
                                      const std::string& reason) {
    meta_wrapper_->telemetry()->events.Emit(
        obs::EventType::kCacheEpochBump, obs::EventSeverity::kInfo,
        /*server_id=*/"", /*query_id=*/0,
        "routing epoch -> " + std::to_string(epoch) + " (" + reason + ")");
    OnRoutingEpochBump(reason);
  });
}

void Integrator::SetPlanSelector(PlanSelector* selector) {
  selector_ = selector ? selector : &default_selector_;
}

void Integrator::set_background_load(double load) {
  background_load_ = std::clamp(load, 0.0, 0.99);
}

double Integrator::effective_cpu_speed() const {
  const double frac =
      std::max(config_.min_speed_fraction,
               1.0 - config_.cpu_load_sensitivity * background_load_);
  return config_.actual_cpu_speed * frac;
}

double Integrator::effective_io_speed() const {
  const double frac =
      std::max(config_.min_speed_fraction,
               1.0 - config_.io_load_sensitivity * background_load_);
  return config_.actual_io_speed * frac;
}

double Integrator::FragmentDeadline(const FragmentOption& choice) const {
  const FaultToleranceConfig& ft = config_.fault;
  return ft.deadline_multiplier * choice.cost.calibrated_seconds +
         ft.deadline_floor_s;
}

double Integrator::HedgeDelay(const FragmentOption& choice) const {
  const FaultToleranceConfig& ft = config_.fault;
  if (fragment_stats_.count() >= ft.hedge_min_samples) {
    return std::max(ft.hedge_floor_s,
                    fragment_stats_.mean() +
                        ft.hedge_stddevs * fragment_stats_.stddev());
  }
  return std::max(ft.hedge_floor_s,
                  ft.hedge_multiplier * choice.cost.calibrated_seconds);
}

Result<PreparedPlanPtr> Integrator::Prepare(const std::string& sql,
                                            QueryContext* ctx) {
  ctx->sql = sql;
  ctx->query_id = patroller_.RecordSubmission(sql);

  obs::Telemetry& tel = *meta_wrapper_->telemetry();
  tel.metrics.counter("query.submitted").Add();
  tel.tracer.BeginQuery(ctx->query_id, sql);

  // Catalog/replica edits since the last compile invalidate every cached
  // entry: candidate servers or statistics may have changed.
  if (catalog_ != nullptr && catalog_->version() != last_catalog_version_) {
    plan_cache_.BumpEpoch("catalog-change");
    last_catalog_version_ = catalog_->version();
  }

  auto fail = [&](const Status& st) {
    tel.metrics.counter("query.compile_failed").Add();
    tel.tracer.EndQuery(ctx->query_id, /*failed=*/true, st.ToString());
    patroller_.RecordFailure(ctx->query_id, st.ToString());
    return st;
  };

  ctx->fingerprint = FingerprintSql(sql);
  const bool cacheable = config_.enable_plan_cache && ctx->fingerprint.ok;
  if (cacheable) {
    if (PreparedPlanPtr hit =
            plan_cache_.Lookup(ctx->fingerprint.canonical_sql)) {
      ctx->cache_hit = true;
      ctx->type_signature = hit->type_signature;
      tel.metrics.counter("plan_cache.hit").Add();
      tel.metrics.gauge("plan_cache.hit_rate")
          .Set(plan_cache_.stats().HitRate());
      return hit;
    }
    tel.metrics.counter("plan_cache.miss").Add();
  }

  const uint64_t parse_span =
      tel.tracer.StartSpan(ctx->query_id, obs::SpanKind::kParse, "parse");
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) return fail(stmt.status());
  ctx->type_signature = SignatureOf(*stmt);
  tel.tracer.EndSpan(ctx->query_id, parse_span);

  auto prepared = std::make_shared<PreparedPlan>();
  const uint64_t decompose_span = tel.tracer.StartSpan(
      ctx->query_id, obs::SpanKind::kDecompose, "decompose");
  auto decomposition = optimizer_.decomposer().Decompose(*stmt);
  if (!decomposition.ok()) return fail(decomposition.status());
  prepared->decomposition = std::move(decomposition).MoveValue();
  tel.tracer.EndSpan(ctx->query_id, decompose_span);

  const uint64_t optimize_span = tel.tracer.StartSpan(
      ctx->query_id, obs::SpanKind::kOptimize, "optimize");
  auto options = optimizer_.Enumerate(ctx->query_id, prepared->decomposition,
                                      config_.max_alternatives_per_server,
                                      config_.max_global_plans);
  if (!options.ok()) return fail(options.status());
  prepared->options = std::move(options).MoveValue();
  if (prepared->options.empty()) {
    return fail(Status::PlanError("global optimization found no plan"));
  }
  tel.tracer.EndSpan(ctx->query_id, optimize_span);

  prepared->canonical_sql =
      cacheable ? ctx->fingerprint.canonical_sql : sql;
  prepared->template_params = ctx->fingerprint.params;
  prepared->type_signature = ctx->type_signature;
  prepared->compiled_epoch = plan_cache_.epoch();
  PreparedPlanPtr shared = std::move(prepared);
  if (cacheable) {
    plan_cache_.Insert(shared);
    tel.metrics.gauge("plan_cache.size")
        .Set(static_cast<double>(plan_cache_.size()));
  }
  return shared;
}

Result<CompiledQuery> Integrator::Route(const PreparedPlanPtr& prepared,
                                        QueryContext* ctx) {
  obs::Telemetry& tel = *meta_wrapper_->telemetry();
  CompiledQuery compiled;
  compiled.query_id = ctx->query_id;
  compiled.sql = ctx->sql;
  compiled.decomposition = prepared->decomposition;
  compiled.options = prepared->options;
  compiled.cache_hit = ctx->cache_hit;
  ctx->routing_epoch = plan_cache_.epoch();
  compiled.routing_epoch = ctx->routing_epoch;

  const uint64_t route_span =
      tel.tracer.StartSpan(ctx->query_id, obs::SpanKind::kRoute, "route");
  tel.tracer.SetAttr(ctx->query_id, route_span, "cache",
                     ctx->cache_hit ? "hit" : "miss");

  // Prepared-statement semantics: when this instance's literals differ
  // from the compiled template's, substitute them into clones of the
  // execution plans and re-cost against current statistics. After this
  // block the options are cost-identical to a fresh compile of the
  // instance, so routing and QCC's estimate/observation pairing cannot
  // tell a cache hit from a cold compile.
  if (ctx->fingerprint.ok &&
      !(ctx->fingerprint.params == prepared->template_params)) {
    const std::vector<Value>& params = ctx->fingerprint.params;
    for (auto& option : compiled.options) {
      option.merge_plan = PlanNode::SubstituteParams(option.merge_plan,
                                                     params);
      for (auto& fc : option.fragment_choices) {
        fc.wrapper_plan.plan =
            PlanNode::SubstituteParams(fc.wrapper_plan.plan, params);
      }
      Status recost = optimizer_.RecostSubstituted(&option);
      if (!recost.ok()) {
        // Degraded but safe: the template's estimates still describe a
        // valid plan; pricing below proceeds with those.
        FEDCAL_LOG_DEBUG << "recost after substitution failed: "
                         << recost.ToString();
      }
    }
    // Mirror Enumerate's output order (cheapest raw first, stable) so a
    // hit enters pricing in the same order a fresh compile would.
    std::stable_sort(compiled.options.begin(), compiled.options.end(),
                     [](const GlobalPlanOption& a,
                        const GlobalPlanOption& b) {
                       return a.total_raw_seconds < b.total_raw_seconds;
                     });
  }

  // Pricing: the only point where calibration/reliability/availability
  // state touches the plans. The Begin/EndPricing bracket pins one
  // immutable snapshot of the calibrator's state for this thread, so all
  // candidates are priced consistently even while concurrent workers
  // record fresh observations.
  CostCalibrator* calibrator = meta_wrapper_->calibrator();
  calibrator->BeginPricing();
  PriceGlobalPlans(calibrator, &compiled.options);

  compiled.chosen_index = selector_->SelectPlan(*ctx, compiled.options);
  calibrator->EndPricing();
  if (compiled.chosen_index >= compiled.options.size()) {
    compiled.chosen_index = 0;
  }
  const GlobalPlanOption& winner = compiled.options[compiled.chosen_index];

  // Serving mode: the engine work of the chosen fragments runs here, on
  // the client thread, rather than in the jobs on the one dispatcher
  // thread. The simulator keeps it at job start, where its writes between
  // Route and the job are already applied.
  if (sim_->mode() == ExecMode::kServing) {
    for (const FragmentOption& fc : winner.fragment_choices) {
      auto wrapper = meta_wrapper_->GetWrapper(fc.wrapper_plan.server_id);
      compiled.fragment_runs.push_back(
          wrapper.ok() ? (*wrapper)->server()->RunAhead(fc.wrapper_plan.plan)
                       : nullptr);
    }
  }
  tel.tracer.EndSpan(ctx->query_id, route_span);

  // Record the winner in the explain table.
  ExplainEntry entry;
  entry.query_id = compiled.query_id;
  entry.sql = compiled.sql;
  entry.total_estimated_seconds = winner.total_calibrated_seconds;
  entry.merge_plan = winner.merge_plan;
  for (const auto& fc : winner.fragment_choices) {
    entry.fragments.push_back(ExplainEntry::FragmentRow{
        fc.wrapper_plan.server_id, fc.wrapper_plan.statement,
        fc.cost.raw_estimated_seconds, fc.cost.calibrated_seconds});
  }
  explain_.Put(std::move(entry));
  return compiled;
}

Result<CompiledQuery> Integrator::Compile(const std::string& sql) {
  QueryContext ctx;
  Result<PreparedPlanPtr> prepared = Status::Internal("prepare never ran");
  // Prepare mutates event-thread-owned state (patroller, planner caches);
  // a serving worker joins the dispatcher's exclusion for it. Route stays
  // outside — pricing, plan selection and the chosen fragments' engine
  // work run concurrently across workers.
  sim_->RunExclusive([&] { prepared = Prepare(sql, &ctx); });
  if (!prepared.ok()) return prepared.status();
  return Route(*prepared, &ctx);
}

void Integrator::Execute(const CompiledQuery& compiled, Callback done) {
  // Engine internals (attempts, fragment tickets, server queues, network
  // links) are event-thread-owned; a serving worker submits by joining
  // the dispatcher's mutual exclusion. In simulation mode RunExclusive
  // is a plain call.
  sim_->RunExclusive([&] {
    auto failed = std::make_shared<std::vector<std::string>>();
    auto state = std::make_shared<ExecState>();
    state->query_started_at = sim_->Now();
    state->rng = Rng(config_.fault.rng_seed ^ compiled.query_id);
    ExecuteOption(compiled, compiled.chosen_index, failed, /*retries=*/0,
                  std::move(state), std::move(done));
  });
}

void Integrator::AbortAttempt(const std::shared_ptr<Attempt>& attempt,
                              const Status& reason) {
  for (auto& ev : attempt->deadline_timers) {
    if (ev != 0) {
      sim_->Cancel(ev);
      ev = 0;
    }
  }
  for (auto& ev : attempt->hedge_timers) {
    if (ev != 0) {
      sim_->Cancel(ev);
      ev = 0;
    }
  }
  for (size_t f = 0; f < attempt->primary.size(); ++f) {
    for (FragmentTicketPtr* t : {&attempt->primary[f], &attempt->hedge[f]}) {
      if (*t && !(*t)->finished()) {
        // Sibling-fragment abort is no fault of that server's.
        (*t)->Cancel(reason, /*count_as_error=*/false);
      }
    }
  }
}

void Integrator::ExecuteOption(
    const CompiledQuery& compiled, size_t option_index,
    std::shared_ptr<std::vector<std::string>> failed_servers, size_t retries,
    std::shared_ptr<ExecState> state, Callback done) {
  const GlobalPlanOption& option = compiled.options[option_index];
  const size_t n = option.fragment_choices.size();

  auto attempt = std::make_shared<Attempt>();
  attempt->compiled = compiled;
  attempt->option_index = option_index;
  attempt->failed_servers = std::move(failed_servers);
  attempt->retries = retries;
  attempt->state = std::move(state);
  attempt->done = std::move(done);
  attempt->started_at = sim_->Now();
  attempt->deadlines_on = config_.fault.enable_deadlines;
  attempt->hedging_on = config_.fault.enable_hedging;
  attempt->span = meta_wrapper_->telemetry()->tracer.StartSpan(
      compiled.query_id, obs::SpanKind::kAttempt,
      "attempt#" + std::to_string(retries));
  meta_wrapper_->telemetry()->tracer.SetAttr(
      compiled.query_id, attempt->span, "plan", option.Describe());
  attempt->remaining = n;
  attempt->tables.resize(n);
  attempt->profiles.resize(n);
  attempt->observed_seconds.assign(n, 0.0);
  attempt->primary.resize(n);
  attempt->hedge.resize(n);
  attempt->primary_servers.assign(n, "");
  attempt->hedge_servers.assign(n, "");
  attempt->fragment_done.assign(n, 0);
  attempt->outstanding.assign(n, 0);
  attempt->dispatch_gen.assign(n, 0);
  attempt->deadline_timers.assign(n, 0);
  attempt->hedge_timers.assign(n, 0);

  if (config_.reroute.enable) {
    inflight_[compiled.query_id] = attempt;
  }

  for (size_t f = 0; f < n; ++f) {
    DispatchFragment(attempt, f);
  }
}

void Integrator::DispatchFragment(const std::shared_ptr<Attempt>& attempt,
                                  size_t f) {
  const CompiledQuery& compiled = attempt->compiled;
  const FragmentOption& choice =
      compiled.options[attempt->option_index].fragment_choices[f];
  const std::string server_id = choice.wrapper_plan.server_id;
  const int gen = attempt->dispatch_gen[f];
  attempt->outstanding[f] = 1;
  attempt->primary_servers[f] = server_id;
  // Route's run goes with the fragment's first dispatch only: taking it
  // here leaves nothing for later attempts, which copy this query.
  FragmentRunPtr run;
  if (f < attempt->compiled.fragment_runs.size()) {
    run = std::move(attempt->compiled.fragment_runs[f]);
  }
  attempt->primary[f] = meta_wrapper_->ExecuteFragment(
      compiled.query_id, choice,
      [this, attempt, f, server_id, gen](Result<FragmentExecution> result) {
        OnFragmentResult(attempt, f, server_id, /*is_hedge=*/false, gen,
                         std::move(result));
      },
      attempt->span, std::move(run));

  if (attempt->deadlines_on) {
    const double deadline = FragmentDeadline(choice);
    if (std::isfinite(deadline)) {
      attempt->deadline_timers[f] = sim_->ScheduleAfter(
          deadline, [this, attempt, f, server_id, deadline, gen] {
            if (attempt->settled || attempt->fragment_done[f]) return;
            if (attempt->dispatch_gen[f] != gen) return;  // superseded
            const uint64_t query_id = attempt->compiled.query_id;
            attempt->deadline_timers[f] = 0;
            ++attempt->state->timeouts;
            obs::Telemetry& tel = *meta_wrapper_->telemetry();
            tel.metrics.counter("fragment.deadline_expired").Add();
            tel.tracer.AddEvent(query_id, obs::SpanKind::kTimeout,
                                "deadline@" + server_id, attempt->span);
            tel.events.Emit(obs::EventType::kDeadlineExpired,
                            obs::EventSeverity::kWarn, server_id, query_id,
                            "fragment " + std::to_string(f) +
                                " missed its " +
                                obs::FormatMetricValue(deadline) +
                                "s deadline",
                            attempt->span);
            FEDCAL_LOG_INFO << "query " << query_id << ": fragment " << f
                            << " on " << server_id
                            << " missed its deadline ("
                            << deadline << "s), cancelling";
            const Status timeout = Status::Timeout(
                "fragment deadline exceeded on server " + server_id);
            // Cancelling delivers the timeout through the tickets'
            // callbacks, which drive the failover.
            for (FragmentTicketPtr* t :
                 {&attempt->primary[f], &attempt->hedge[f]}) {
              if (*t && !(*t)->finished()) {
                (*t)->Cancel(timeout, /*count_as_error=*/true);
              }
            }
            // A switch here outruns the abort: the cancellations just
            // issued arrive with a stale generation and are dropped while
            // the remainder moves off the stalled server. When no
            // alternative survives, the timeout proceeds to the legacy
            // attempt failover instead.
            if (config_.reroute.enable) {
              MaybeReroute(attempt, ReRouteTrigger::kFragmentTimeout,
                           "fragment-timeout(" + server_id + ")", server_id);
            }
          });
    }
  }

  if (attempt->hedging_on) {
    const double hedge_delay = HedgeDelay(choice);
    if (std::isfinite(hedge_delay)) {
      attempt->hedge_timers[f] = sim_->ScheduleAfter(
          hedge_delay, [this, attempt, f, server_id, gen] {
            if (attempt->settled || attempt->fragment_done[f]) return;
            if (attempt->dispatch_gen[f] != gen) return;  // superseded
            attempt->hedge_timers[f] = 0;
            const CompiledQuery& compiled = attempt->compiled;
            // Cheapest alternative for this fragment on another,
            // non-failed server (options are sorted cheapest-first).
            const FragmentOption* alt = nullptr;
            for (const auto& cand : compiled.options) {
              if (f >= cand.fragment_choices.size()) continue;
              const FragmentOption& fc = cand.fragment_choices[f];
              const std::string& sid = fc.wrapper_plan.server_id;
              if (sid == server_id) continue;
              if (std::find(attempt->failed_servers->begin(),
                            attempt->failed_servers->end(),
                            sid) != attempt->failed_servers->end()) {
                continue;
              }
              if (!std::isfinite(fc.cost.calibrated_seconds)) continue;
              alt = &fc;
              break;
            }
            if (alt == nullptr) return;
            ++attempt->state->hedges;
            ++attempt->outstanding[f];
            const std::string alt_server = alt->wrapper_plan.server_id;
            FEDCAL_LOG_INFO << "query " << compiled.query_id
                            << ": hedging straggler fragment " << f
                            << " (" << server_id << ") on "
                            << alt_server;
            obs::Telemetry& tel = *meta_wrapper_->telemetry();
            tel.metrics.counter("fragment.hedged").Add();
            tel.events.Emit(obs::EventType::kHedgeFired,
                            obs::EventSeverity::kInfo, alt_server,
                            compiled.query_id,
                            "hedging straggler fragment " +
                                std::to_string(f) + " (primary " +
                                server_id + ")",
                            attempt->span);
            attempt->hedge_servers[f] = alt_server;
            attempt->hedge[f] = meta_wrapper_->ExecuteFragment(
                compiled.query_id, *alt,
                [this, attempt, f, alt_server, gen](
                    Result<FragmentExecution> result) {
                  OnFragmentResult(attempt, f, alt_server, /*is_hedge=*/true,
                                   gen, std::move(result));
                },
                attempt->span);
            tel.tracer.SetAttr(compiled.query_id,
                               attempt->hedge[f]->trace_span(), "hedge",
                               "1");
          });
    }
  }
}

void Integrator::OnFragmentResult(const std::shared_ptr<Attempt>& attempt,
                                  size_t f, const std::string& server_id,
                                  bool is_hedge, int gen,
                                  Result<FragmentExecution> result) {
  if (attempt->settled) return;
  // A mid-query switch re-dispatched this fragment after the ticket was
  // issued: whatever it carries — a success, an error, or the
  // cancellation the switch itself triggered — belongs to a superseded
  // generation. Only the current generation may settle the fragment, so a
  // stale result can never leak rows into the merge.
  if (gen != attempt->dispatch_gen[f]) return;
  const CompiledQuery& compiled = attempt->compiled;

  if (result.ok()) {
    if (attempt->fragment_done[f]) return;  // duplicate (loser raced win)
    attempt->fragment_done[f] = 1;
    attempt->tables[f] = result->table;
    attempt->profiles[f] = result->server_result.profile;
    attempt->observed_seconds[f] = result->server_result.server_seconds;
    fragment_stats_.Add(result->response_seconds);
    if (attempt->deadline_timers[f] != 0) {
      sim_->Cancel(attempt->deadline_timers[f]);
      attempt->deadline_timers[f] = 0;
    }
    if (attempt->hedge_timers[f] != 0) {
      sim_->Cancel(attempt->hedge_timers[f]);
      attempt->hedge_timers[f] = 0;
    }
    // Retire the losing side of a hedged pair; it was merely slower, so
    // the cancellation does not count against its server.
    FragmentTicketPtr& loser =
        is_hedge ? attempt->primary[f] : attempt->hedge[f];
    if (loser && !loser->finished()) {
      loser->Cancel(
          Status::Timeout("hedged sibling finished first"),
          /*count_as_error=*/false);
      const std::string loser_server =
          is_hedge ? attempt->primary_servers[f] : attempt->hedge_servers[f];
      meta_wrapper_->telemetry()->events.Emit(
          obs::EventType::kHedgeCancelled, obs::EventSeverity::kInfo,
          loser_server, compiled.query_id,
          "fragment " + std::to_string(f) + " settled on " + server_id +
              "; cancelling slower twin",
          attempt->span);
    }
    if (is_hedge) {
      ++attempt->state->hedge_wins;
      meta_wrapper_->telemetry()->metrics.counter("fragment.hedge_wins")
          .Add();
    }
    if (--attempt->remaining > 0) {
      // A hedge win means the primary ran slower than priced — grounds to
      // re-examine where the rest of the plan should run.
      if (is_hedge && config_.reroute.enable) {
        MaybeReroute(attempt, ReRouteTrigger::kHedgeLoss,
                     "hedge-loss(" + attempt->primary_servers[f] + ")",
                     /*exclude_server=*/"");
      }
      return;
    }
    if (attempt->failed) {
      // Legacy barrier mode: a fragment failed earlier; every other
      // fragment has now resolved, so fail over.
      attempt->settled = true;
      inflight_.erase(compiled.query_id);
      meta_wrapper_->telemetry()->tracer.EndSpan(
          compiled.query_id, attempt->span, /*failed=*/true,
          attempt->first_error.ToString());
      HandleAttemptFailure(compiled, attempt->failed_servers,
                           attempt->retries, attempt->state,
                           attempt->first_error, attempt->failed_server,
                           std::move(attempt->done));
      return;
    }
    attempt->settled = true;
    inflight_.erase(compiled.query_id);
    FinishWithMerge(compiled, attempt->option_index,
                    std::move(attempt->tables), std::move(attempt->profiles),
                    std::move(attempt->observed_seconds), attempt->started_at,
                    attempt->retries, attempt->state, attempt->span,
                    std::move(attempt->done));
    return;
  }

  // A ticket failed (error, timeout, or cancellation).
  if (attempt->fragment_done[f]) return;  // loser cancelled after a win
  if (--attempt->outstanding[f] > 0) return;  // sibling still in flight
  if (!attempt->failed) {
    attempt->failed = true;
    attempt->first_error = result.status();
    attempt->failed_server = server_id;
  }
  if (attempt->deadlines_on) {
    // Eager failover: do not wait for healthy fragments to finish work
    // that will be discarded anyway.
    attempt->settled = true;
    inflight_.erase(compiled.query_id);
    AbortAttempt(attempt,
                 Status::Timeout("attempt aborted after failure of " +
                                 attempt->failed_server));
    meta_wrapper_->telemetry()->tracer.EndSpan(
        compiled.query_id, attempt->span, /*failed=*/true,
        attempt->first_error.ToString());
    HandleAttemptFailure(compiled, attempt->failed_servers, attempt->retries,
                         attempt->state, attempt->first_error,
                         attempt->failed_server, std::move(attempt->done));
    return;
  }
  // Seed-compatible barrier mode: count the fragment as resolved and
  // wait for the stragglers before retrying.
  attempt->fragment_done[f] = 1;
  if (--attempt->remaining > 0) return;
  attempt->settled = true;
  inflight_.erase(compiled.query_id);
  meta_wrapper_->telemetry()->tracer.EndSpan(
      compiled.query_id, attempt->span, /*failed=*/true,
      attempt->first_error.ToString());
  HandleAttemptFailure(compiled, attempt->failed_servers, attempt->retries,
                       attempt->state, attempt->first_error,
                       attempt->failed_server, std::move(attempt->done));
}

bool Integrator::MaybeReroute(const std::shared_ptr<Attempt>& attempt,
                              ReRouteTrigger trigger,
                              const std::string& trigger_detail,
                              const std::string& exclude_server) {
  if (!config_.reroute.enable || attempt->settled) return false;
  const CompiledQuery& compiled = attempt->compiled;
  const size_t n = attempt->fragment_done.size();
  std::vector<char> remaining(n, 0);
  size_t n_remaining = 0;
  for (size_t f = 0; f < n; ++f) {
    if (!attempt->fragment_done[f]) {
      remaining[f] = 1;
      ++n_remaining;
    }
  }
  if (n_remaining == 0) return false;  // merge is imminent; nothing to move

  const bool forced = trigger == ReRouteTrigger::kFragmentTimeout ||
                      trigger == ReRouteTrigger::kRetryExhausted;
  obs::Telemetry& tel = *meta_wrapper_->telemetry();

  obs::ReRouteRecord rec;
  rec.query_id = compiled.query_id;
  rec.sequence = ++attempt->state->reroute_evals;
  rec.at = sim_->Now();
  rec.trigger = trigger_detail;
  rec.routing_epoch = plan_cache_.epoch();
  rec.remaining_fragments = n_remaining;
  rec.completed_fragments = n - n_remaining;
  rec.forced = forced;
  rec.from_servers =
      Join(compiled.options[attempt->option_index].server_set, "+");

  auto held = [&](const std::string& why) {
    rec.switched = false;
    rec.outcome = why;
    tel.recorder.RecordReRoute(rec);
    tel.events.Emit(obs::EventType::kReRouteHeld, obs::EventSeverity::kInfo,
                    exclude_server, compiled.query_id,
                    trigger_detail + ": " + why, attempt->span);
    return false;
  };

  if (attempt->state->reroutes >= config_.reroute.max_switches_per_query) {
    return held("ignored: switch budget exhausted (" +
                std::to_string(attempt->state->reroutes) + " of " +
                std::to_string(config_.reroute.max_switches_per_query) +
                " switches spent)");
  }

  // Fresh prices for every surviving candidate, index-stable so the
  // in-flight option keeps its position.
  std::vector<GlobalPlanOption> priced = compiled.options;
  RepriceGlobalPlansInPlace(meta_wrapper_->calibrator(), &priced);
  const double current =
      RemainderCalibratedSeconds(priced[attempt->option_index], remaining);
  rec.current_remainder_seconds = current;

  size_t best = priced.size();
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < priced.size(); ++i) {
    if (i == attempt->option_index) continue;
    const GlobalPlanOption& cand = priced[i];
    if (cand.fragment_choices.size() != n) continue;
    bool viable = true;
    for (size_t f = 0; f < n && viable; ++f) {
      if (!remaining[f]) continue;
      const std::string& sid = cand.fragment_choices[f].wrapper_plan.server_id;
      if (sid == exclude_server ||
          std::find(attempt->failed_servers->begin(),
                    attempt->failed_servers->end(),
                    sid) != attempt->failed_servers->end()) {
        viable = false;
      }
    }
    if (!viable) continue;
    const double cost = RemainderCalibratedSeconds(cand, remaining);
    if (!std::isfinite(cost) || cost >= best_cost) continue;
    best_cost = cost;
    best = i;
  }
  if (best == priced.size()) {
    return held("held: no viable alternative for the remainder");
  }
  rec.best_alternative_seconds = best_cost;
  rec.to_servers = Join(priced[best].server_set, "+");

  const ReRouteDecision verdict =
      EvaluateHysteresis(config_.reroute, current, best_cost, forced);
  rec.gap_seconds = verdict.gap_seconds;
  rec.threshold_seconds = verdict.threshold_seconds;
  if (!verdict.switched) return held(verdict.outcome);

  // Execute the switch: the winner becomes the attempt's plan (with the
  // fresh prices, so re-dispatched fragments get honest deadlines and the
  // merge records the plan that actually ran), superseded tickets are
  // cancelled blamelessly, and the remainder re-dispatches.
  ++attempt->state->reroutes;
  rec.switched = true;
  rec.outcome = verdict.outcome;
  tel.recorder.RecordReRoute(rec);
  tel.metrics.counter("query.reroutes").Add();
  tel.events.Emit(
      obs::EventType::kReRouted, obs::EventSeverity::kWarn, exclude_server,
      compiled.query_id,
      "mid-query re-route #" + std::to_string(attempt->state->reroutes) +
          " (" + trigger_detail + "): remainder " + rec.from_servers +
          " -> " + rec.to_servers,
      attempt->span);
  FEDCAL_LOG_INFO << "query " << compiled.query_id
                  << ": re-routing remainder (" << trigger_detail << ") "
                  << rec.from_servers << " -> " << rec.to_servers;
  if (!exclude_server.empty()) {
    attempt->failed_servers->push_back(exclude_server);
  }

  attempt->compiled.options = std::move(priced);
  attempt->option_index = best;
  tel.tracer.SetAttr(compiled.query_id, attempt->span, "reroute",
                     attempt->compiled.options[best].Describe());

  const Status superseded = Status::Timeout(
      "superseded by mid-query re-route to " + rec.to_servers);
  for (size_t f = 0; f < n; ++f) {
    if (!remaining[f]) continue;
    const std::string& new_server = attempt->compiled.options[best]
                                        .fragment_choices[f]
                                        .wrapper_plan.server_id;
    const bool live_primary =
        attempt->primary[f] && !attempt->primary[f]->finished();
    if (new_server == attempt->primary_servers[f] && live_primary) {
      continue;  // the new plan keeps this fragment where it already runs
    }
    if (attempt->deadline_timers[f] != 0) {
      sim_->Cancel(attempt->deadline_timers[f]);
      attempt->deadline_timers[f] = 0;
    }
    if (attempt->hedge_timers[f] != 0) {
      sim_->Cancel(attempt->hedge_timers[f]);
      attempt->hedge_timers[f] = 0;
    }
    for (FragmentTicketPtr* t : {&attempt->primary[f], &attempt->hedge[f]}) {
      if (*t && !(*t)->finished()) {
        (*t)->Cancel(superseded, /*count_as_error=*/false);
      }
      t->reset();
    }
    attempt->hedge_servers[f] = "";
    ++attempt->dispatch_gen[f];
    DispatchFragment(attempt, f);
  }
  return true;
}

void Integrator::OnRoutingEpochBump(const std::string& reason) {
  // inflight_ and the per-attempt flags are event-thread-owned; bumps can
  // originate from any thread (a catalog-change bump inside a worker's
  // Prepare), so join the dispatcher's mutual exclusion — reentrant when
  // the bump already fired on the event thread.
  sim_->RunExclusive([&] {
    if (!config_.reroute.enable || inflight_.empty()) return;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      std::shared_ptr<Attempt> attempt = it->second.lock();
      if (!attempt || attempt->settled) {
        it = inflight_.erase(it);
        continue;
      }
      if (!attempt->epoch_eval_pending) {
        attempt->epoch_eval_pending = true;
        // Deferred one tick: bumps fire from inside QCC observation and
        // error hooks, mid fragment-completion; evaluating synchronously
        // would re-enter the attempt's bookkeeping.
        sim_->ScheduleAfter(0.0, [this, attempt, reason] {
          attempt->epoch_eval_pending = false;
          MaybeReroute(attempt, ReRouteTrigger::kEpochBump,
                       "epoch-bump(" + reason + ")", /*exclude_server=*/"");
        });
      }
      ++it;
    }
  });
}

bool Integrator::TryRetryElsewhere(
    const CompiledQuery& compiled, size_t next_index,
    std::shared_ptr<std::vector<std::string>> failed, size_t retries,
    std::shared_ptr<ExecState> state, const std::string& failed_server,
    Callback& done) {
  if (!config_.reroute.enable) return false;
  obs::Telemetry& tel = *meta_wrapper_->telemetry();

  obs::ReRouteRecord rec;
  rec.query_id = compiled.query_id;
  rec.sequence = ++state->reroute_evals;
  rec.at = sim_->Now();
  rec.trigger = "retry-exhausted(" + failed_server + ")";
  rec.routing_epoch = plan_cache_.epoch();
  rec.remaining_fragments = compiled.decomposition.fragments.size();
  rec.completed_fragments = 0;
  rec.forced = true;
  rec.from_servers = failed_server;

  if (state->reroutes >= config_.reroute.max_switches_per_query) {
    rec.outcome = "ignored: switch budget exhausted (" +
                  std::to_string(state->reroutes) + " of " +
                  std::to_string(config_.reroute.max_switches_per_query) +
                  " switches spent)";
    tel.recorder.RecordReRoute(rec);
    tel.events.Emit(obs::EventType::kReRouteHeld, obs::EventSeverity::kInfo,
                    failed_server, compiled.query_id,
                    rec.trigger + ": " + rec.outcome);
    return false;
  }

  // Price the survivor fresh so the record (and the fallback attempt's
  // deadlines) reflect what the calibrator believes now.
  std::vector<GlobalPlanOption> priced = compiled.options;
  RepriceGlobalPlansInPlace(meta_wrapper_->calibrator(), &priced);
  rec.current_remainder_seconds = std::numeric_limits<double>::infinity();
  rec.best_alternative_seconds = priced[next_index].total_calibrated_seconds;
  rec.gap_seconds =
      rec.current_remainder_seconds - rec.best_alternative_seconds;
  rec.threshold_seconds = config_.reroute.hysteresis_floor_s;
  rec.to_servers = Join(priced[next_index].server_set, "+");
  if (!std::isfinite(rec.best_alternative_seconds)) {
    rec.outcome = "held: surviving plan prices at infinity";
    tel.recorder.RecordReRoute(rec);
    tel.events.Emit(obs::EventType::kReRouteHeld, obs::EventSeverity::kInfo,
                    failed_server, compiled.query_id,
                    rec.trigger + ": " + rec.outcome);
    return false;
  }

  ++state->reroutes;
  rec.switched = true;
  rec.outcome = "switched";
  tel.recorder.RecordReRoute(rec);
  tel.metrics.counter("query.reroutes").Add();
  tel.events.Emit(obs::EventType::kReRouted, obs::EventSeverity::kWarn,
                  failed_server, compiled.query_id,
                  "retry budget exhausted on " + failed_server +
                      "; retrying elsewhere on " + rec.to_servers);
  FEDCAL_LOG_INFO << "query " << compiled.query_id
                  << ": retry budget exhausted on " << failed_server
                  << ", spending a switch to retry on " << rec.to_servers;

  CompiledQuery repriced = compiled;
  repriced.options = std::move(priced);
  ExecuteOption(repriced, next_index, std::move(failed), retries + 1,
                std::move(state), std::move(done));
  return true;
}

void Integrator::HandleAttemptFailure(
    const CompiledQuery& compiled,
    std::shared_ptr<std::vector<std::string>> failed_servers, size_t retries,
    std::shared_ptr<ExecState> state, const Status& error,
    const std::string& failed_server, Callback done) {
  failed_servers->push_back(failed_server);

  auto fail = [&](const Status& st) {
    obs::Telemetry& tel = *meta_wrapper_->telemetry();
    tel.metrics.counter("query.failed").Add();
    tel.tracer.EndQuery(compiled.query_id, /*failed=*/true, st.ToString());
    tel.health.RecordQuery(sim_->Now(),
                           sim_->Now() - state->query_started_at,
                           /*ok=*/false);
    patroller_.RecordFailure(compiled.query_id, st.ToString());
    done(st);
  };
  auto exhausted = [&](const std::string& why) {
    meta_wrapper_->telemetry()->events.Emit(
        obs::EventType::kRetryExhausted, obs::EventSeverity::kError,
        failed_server, compiled.query_id, why);
  };

  if (!config_.retry_on_failure) {
    fail(error);
    return;
  }

  // Next-cheapest plan avoiding every failed server.
  size_t next_index = compiled.options.size();
  for (size_t i = 0; i < compiled.options.size(); ++i) {
    const auto& cand = compiled.options[i];
    bool avoids = true;
    for (const auto& s : cand.server_set) {
      if (std::find(failed_servers->begin(), failed_servers->end(), s) !=
          failed_servers->end()) {
        avoids = false;
        break;
      }
    }
    if (avoids) {
      next_index = i;
      break;
    }
  }
  if (next_index == compiled.options.size()) {
    exhausted("no surviving plan avoids the failed servers");
    fail(error);
    return;
  }

  const size_t attempts_so_far = retries + 1;
  meta_wrapper_->telemetry()->metrics.counter("query.retries").Add();
  if (!config_.fault.enable_deadlines) {
    // Seed behaviour: immediate failover, no attempt cap beyond the number
    // of distinct plans.
    FEDCAL_LOG_INFO << "query " << compiled.query_id << ": retrying on "
                    << compiled.options[next_index].Describe()
                    << " after failure of " << failed_server;
    meta_wrapper_->telemetry()->events.Emit(
        obs::EventType::kRetry, obs::EventSeverity::kWarn, failed_server,
        compiled.query_id,
        "failing over to " + compiled.options[next_index].Describe());
    ExecuteOption(compiled, next_index, failed_servers, retries + 1, state,
                  done);
    return;
  }

  const RetryPolicy policy(config_.fault.retry);
  const double elapsed = sim_->Now() - state->query_started_at;
  if (!policy.AllowRetry(attempts_so_far, elapsed)) {
    // "Retry elsewhere": a replica plan avoiding every failed server still
    // exists, so with re-routing enabled the query spends a switch on it
    // instead of failing on an exhausted per-server retry budget.
    if (TryRetryElsewhere(compiled, next_index, failed_servers, retries,
                          state, failed_server, done)) {
      return;
    }
    exhausted("retry budget exhausted after " +
              std::to_string(attempts_so_far) + " attempts");
    fail(Status::Timeout("retry budget exhausted after " +
                         std::to_string(attempts_so_far) +
                         " attempts: " + error.ToString()));
    return;
  }
  const double delay = policy.BackoffDelay(attempts_so_far, &state->rng);
  if (elapsed + delay >= policy.config().query_budget_s) {
    exhausted("query deadline budget exhausted");
    fail(Status::Timeout("query deadline budget exhausted: " +
                         error.ToString()));
    return;
  }
  FEDCAL_LOG_INFO << "query " << compiled.query_id << ": retrying on "
                  << compiled.options[next_index].Describe() << " in "
                  << delay << "s after " << error.ToString();
  meta_wrapper_->telemetry()->events.Emit(
      obs::EventType::kRetry, obs::EventSeverity::kWarn, failed_server,
      compiled.query_id,
      "retrying on " + compiled.options[next_index].Describe() + " in " +
          obs::FormatMetricValue(delay) + "s");
  const uint64_t wait_span = meta_wrapper_->telemetry()->tracer.StartSpan(
      compiled.query_id, obs::SpanKind::kRetryWait, "backoff");
  sim_->ScheduleAfter(delay, [this, compiled, next_index, failed_servers,
                              retries, state, done, wait_span] {
    meta_wrapper_->telemetry()->tracer.EndSpan(compiled.query_id, wait_span);
    ExecuteOption(compiled, next_index, failed_servers, retries + 1, state,
                  done);
  });
}

void Integrator::RecordQueryProfile(
    const CompiledQuery& compiled, const GlobalPlanOption& option,
    std::vector<std::shared_ptr<obs::OperatorProfile>> fragment_profiles,
    const std::vector<double>& fragment_observed_s,
    std::shared_ptr<obs::OperatorProfile> merge_profile,
    double merge_seconds) {
  obs::Telemetry& tel = *meta_wrapper_->telemetry();
  const SimTime now = sim_->Now();

  auto profile = std::make_shared<obs::QueryProfile>();
  profile->query_id = compiled.query_id;
  profile->sql = compiled.sql;
  profile->merge = std::move(merge_profile);
  profile->merge_seconds = merge_seconds;
  for (size_t f = 0; f < fragment_profiles.size(); ++f) {
    // Null = the server replied in the old, profile-less format; the rest
    // of the query profile is still useful.
    if (fragment_profiles[f] == nullptr) continue;
    const FragmentOption& choice = option.fragment_choices[f];
    obs::FragmentProfile fp;
    fp.server_id = choice.wrapper_plan.server_id;
    fp.fragment_index = f;
    fp.signature = choice.wrapper_plan.signature;
    fp.estimated_seconds = choice.cost.calibrated_seconds;
    fp.observed_seconds = f < fragment_observed_s.size()
                              ? fragment_observed_s[f]
                              : 0.0;
    fp.root = std::move(fragment_profiles[f]);
    profile->fragments.push_back(std::move(fp));
  }

  // Feed the accuracy scoreboard: one sample per operator into the
  // (server, operator-kind) cells, and the worst q-error of each fragment
  // into its template cell. A template miss means the optimizer's
  // cardinality model was wrong for this plan shape — surface it as a
  // typed event so the health engine can correlate it against QCC state.
  for (const obs::FragmentProfile& fp : profile->fragments) {
    double worst_q = 1.0;
    double worst_abs = 0.0;
    std::string worst_op;
    std::function<void(const obs::OperatorProfile&)> walk =
        [&](const obs::OperatorProfile& node) {
          tel.recorder.RecordAccuracySample(fp.server_id, node.op, now,
                                            node.estimated_rows,
                                            double(node.rows_out));
          const double q = node.q_error();
          if (q > worst_q) {
            worst_q = q;
            worst_abs =
                std::abs(double(node.rows_out) - node.estimated_rows);
            worst_op = node.op;
          }
          for (const auto& child : node.children) walk(*child);
        };
    walk(*fp.root);
    const bool miss =
        tel.recorder.RecordTemplateAccuracy(fp.signature, now, worst_q,
                                            worst_abs);
    if (miss) {
      tel.metrics.counter("query.estimate_miss").Add();
      tel.events.Emit(
          obs::EventType::kEstimateMiss, obs::EventSeverity::kWarn,
          fp.server_id, compiled.query_id,
          "cardinality estimate off " + obs::FormatMetricValue(worst_q) +
              "x at " + worst_op + " (fragment " +
              std::to_string(fp.fragment_index) + "); see \\profile " +
              std::to_string(compiled.query_id));
    }
  }

  tel.recorder.AttachProfile(compiled.query_id, std::move(profile));
}

void Integrator::FinishWithMerge(
    const CompiledQuery& compiled, size_t option_index,
    std::vector<TablePtr> fragment_tables,
    std::vector<std::shared_ptr<obs::OperatorProfile>> fragment_profiles,
    std::vector<double> fragment_observed_s, SimTime started_at,
    size_t retries, std::shared_ptr<ExecState> state, uint64_t attempt_span,
    Callback done) {
  const GlobalPlanOption& option = compiled.options[option_index];
  obs::Telemetry& tel = *meta_wrapper_->telemetry();
  const uint64_t merge_span = tel.tracer.StartSpan(
      compiled.query_id, obs::SpanKind::kMerge, "merge", attempt_span);

  // Materialize fragment results as the merge plan's temp tables.
  auto temp = std::make_shared<std::map<std::string, TablePtr>>();
  for (size_t f = 0; f < fragment_tables.size(); ++f) {
    (*temp)[Decomposition::FragmentTableName(f)] = fragment_tables[f];
  }
  Executor merge_exec(
      [temp](const std::string& name) -> Result<TablePtr> {
        auto it = temp->find(name);
        if (it == temp->end()) return Status::NotFound("no temp table " + name);
        return it->second;
      },
      config_.exec);

  ExecStats stats;
  std::shared_ptr<obs::OperatorProfile> merge_profile;
  auto merged = merge_exec.Execute(
      option.merge_plan, &stats,
      config_.exec.profile ? &merge_profile : nullptr);
  if (!merged.ok()) {
    tel.metrics.counter("query.failed").Add();
    tel.tracer.EndQuery(compiled.query_id, /*failed=*/true,
                        merged.status().ToString());
    tel.health.RecordQuery(sim_->Now(),
                           sim_->Now() - state->query_started_at,
                           /*ok=*/false);
    patroller_.RecordFailure(compiled.query_id, merged.status().ToString());
    done(merged.status());
    return;
  }
  const double merge_seconds = stats.cpu_units() / effective_cpu_speed() +
                               stats.io_units / effective_io_speed();
  meta_wrapper_->calibrator()->RecordIntegrationObservation(
      option.merge_estimated_seconds, merge_seconds);
  if (config_.exec.profile) {
    if (merge_profile != nullptr) {
      obs::ApplyServerSpeeds(merge_profile.get(), effective_cpu_speed(),
                             effective_io_speed());
    }
    RecordQueryProfile(compiled, option, std::move(fragment_profiles),
                       fragment_observed_s, std::move(merge_profile),
                       merge_seconds);
  }

  sim_->ScheduleAfter(
      merge_seconds,
      [this, compiled, option, retries, started_at, state, done, merge_span,
       attempt_span, table = merged.MoveValue()]() mutable {
        patroller_.RecordCompletion(compiled.query_id);
        QueryOutcome outcome;
        outcome.query_id = compiled.query_id;
        outcome.table = std::move(table);
        outcome.response_seconds = sim_->Now() - started_at;
        outcome.total_response_seconds =
            sim_->Now() - state->query_started_at;
        outcome.executed_plan = option;
        outcome.retries = retries;
        outcome.timeouts = state->timeouts;
        outcome.hedges = state->hedges;
        outcome.hedge_wins = state->hedge_wins;
        outcome.reroutes = state->reroutes;

        obs::Telemetry& tel = *meta_wrapper_->telemetry();
        tel.tracer.EndSpan(compiled.query_id, merge_span);
        tel.tracer.EndSpan(compiled.query_id, attempt_span);
        std::string joined;
        for (size_t i = 0; i < option.server_set.size(); ++i) {
          if (i) joined += "+";
          joined += option.server_set[i];
        }
        tel.tracer.SetQueryAttr(compiled.query_id, "servers", joined);
        if (state->reroutes > 0) {
          tel.tracer.SetQueryAttr(compiled.query_id, "reroutes",
                                  std::to_string(state->reroutes));
        }
        tel.tracer.EndQuery(compiled.query_id, /*failed=*/false);
        tel.metrics.counter("query.completed").Add();
        tel.metrics.histogram("query.response_s")
            .Record(outcome.response_seconds);
        tel.metrics.histogram("query.total_s")
            .Record(outcome.total_response_seconds);
        tel.health.RecordQuery(sim_->Now(), outcome.total_response_seconds,
                               /*ok=*/true);

        done(std::move(outcome));
      });
}

Result<QueryOutcome> Integrator::RunSync(const std::string& sql) {
  FEDCAL_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(sql));
  bool finished = false;
  Result<QueryOutcome> outcome = Status::Internal("query never completed");
  Execute(compiled, [&](Result<QueryOutcome> r) {
    outcome = std::move(r);
    finished = true;
  });
  sim_->AwaitCondition([&] { return finished; });
  if (!finished) {
    return Status::Internal("simulation drained before query completion");
  }
  return outcome;
}

}  // namespace fedcal
