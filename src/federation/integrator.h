#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/running_stats.h"
#include "core/retry_policy.h"
#include "engine/exec_config.h"
#include "federation/explain.h"
#include "federation/global_optimizer.h"
#include "federation/patroller.h"
#include "federation/plan_cache.h"
#include "federation/query_context.h"
#include "federation/reroute.h"
#include "obs/operator_profile.h"

namespace fedcal {

/// \brief Hook through which QCC can override the integrator's plan
/// choice — the mechanism behind §4's round-robin load distribution. The
/// default picks the cheapest (index 0).
///
/// Runs in the route phase: `ctx` carries the submission's identity
/// (query id, sql, type signature — already computed, so implementations
/// must not re-parse) and whether the compile was served from the
/// prepared-plan cache.
class PlanSelector {
 public:
  virtual ~PlanSelector() = default;

  /// `options` is sorted by calibrated cost, cheapest first. Returns the
  /// index of the plan to execute.
  virtual size_t SelectPlan(const QueryContext& ctx,
                            const std::vector<GlobalPlanOption>& options) {
    (void)ctx;
    (void)options;
    return 0;
  }
};

/// \brief Mid-query fault tolerance: deadlines, backoff, hedging.
///
/// The §3.3 availability daemons only catch servers that are *down*; a
/// fail-slow server (browned out, congested) never errors and would hold a
/// federated query hostage. This layer derives a deadline per fragment
/// from its calibrated cost, cancels and fails over on expiry, spaces
/// retries with jittered exponential backoff, and can hedge stragglers on
/// the cheapest alternative server.
struct FaultToleranceConfig {
  /// Master switch for deadline-driven cancellation, timeout failover, and
  /// backoff between attempts. Off preserves the seed behaviour: only hard
  /// errors trigger retry, immediately.
  bool enable_deadlines = false;
  /// Per-fragment deadline = multiplier x calibrated cost + floor.
  double deadline_multiplier = 6.0;
  double deadline_floor_s = 0.25;
  /// Retry scheduling across attempts (max attempts, backoff, jitter,
  /// per-query budget).
  RetryPolicyConfig retry;

  /// Speculative re-issue of a straggler fragment on the cheapest
  /// alternative server; first completion wins, the loser is cancelled.
  bool enable_hedging = false;
  /// Hedge fires at mean + hedge_stddevs x stddev of observed fragment
  /// response times (a p95-style threshold) once `hedge_min_samples`
  /// observations exist; before that, at multiplier x calibrated cost.
  double hedge_stddevs = 2.0;
  size_t hedge_min_samples = 8;
  double hedge_multiplier = 3.0;
  double hedge_floor_s = 0.05;

  /// Seed for the deterministic backoff jitter (combined with query id).
  uint64_t rng_seed = 0xfedca1;
};

/// \brief Runtime behaviour of the integrator host.
struct IiConfig {
  /// What the cost model divides merge work by (configured belief).
  double configured_speed = 400'000.0;
  /// Actual speeds of the machine the integrator runs on.
  double actual_cpu_speed = 400'000.0;
  double actual_io_speed = 400'000.0;
  double cpu_load_sensitivity = 0.8;
  double io_load_sensitivity = 0.8;
  double min_speed_fraction = 0.05;

  size_t max_alternatives_per_server = 2;
  size_t max_global_plans = 64;
  /// On fragment failure, re-execute using the next-cheapest plan that
  /// avoids every failed server.
  bool retry_on_failure = true;
  /// Prepared-plan cache: repeated statement shapes skip
  /// parse/decompose/enumerate and go straight to the route phase.
  bool enable_plan_cache = true;
  size_t plan_cache_capacity = 128;
  /// Mid-query deadlines, retry backoff, and hedging.
  FaultToleranceConfig fault;
  /// Mid-query adaptive re-routing of the not-yet-settled remainder.
  ReRouteConfig reroute;
  /// Engine configuration for the integrator's merge executor (row vs
  /// columnar, batch size). Results and stats are engine-invariant; the
  /// columnar engine additionally merges fragment results without
  /// materializing rows.
  ExecConfig exec;
};

/// \brief A routed federated query: decomposition plus every enumerated
/// global plan (cheapest calibrated first, priced at route time) and the
/// selector's choice.
struct CompiledQuery {
  uint64_t query_id = 0;
  std::string sql;
  Decomposition decomposition;
  std::vector<GlobalPlanOption> options;
  size_t chosen_index = 0;
  /// True when the compile phase was served from the prepared-plan cache.
  bool cache_hit = false;
  /// The routing epoch the plans were priced under.
  uint64_t routing_epoch = 0;
  /// Serving mode: the chosen option's fragments as Route ran them on the
  /// calling thread, one per fragment (null where a server left its
  /// fragment to the dispatcher). Execute hands run f to fragment f's first
  /// dispatch, which moves it out; retries, hedges and re-routes run the
  /// engine at the server. Never cached: each Route makes its own.
  std::vector<FragmentRunPtr> fragment_runs;
};

/// \brief Outcome of one federated query execution.
struct QueryOutcome {
  uint64_t query_id = 0;
  TablePtr table;
  /// Duration of the successful attempt (seed-compatible metric).
  double response_seconds = 0.0;
  /// Duration of the whole query including failed attempts and backoff.
  double total_response_seconds = 0.0;
  GlobalPlanOption executed_plan;
  size_t retries = 0;
  size_t timeouts = 0;    ///< fragment deadline expirations
  size_t hedges = 0;      ///< speculative fragment re-issues
  size_t hedge_wins = 0;  ///< hedged attempts that beat the primary
  size_t reroutes = 0;    ///< mid-query plan switches executed
};

/// \brief The federated query processor (the paper's DB2 Information
/// Integrator analog).
///
/// The query lifecycle is two explicit phases. **Compile** (Prepare):
/// patroller intercept -> fingerprint -> prepared-plan cache lookup; on a
/// miss, parse -> decompose over nicknames -> collect raw fragment costs
/// through the meta-wrapper -> global enumeration, then insert into the
/// cache. **Route** (Route): substitute this instance's literals into the
/// cached plans, price every candidate with the *current*
/// calibration/reliability/availability state, let the selector choose,
/// and write the explain entry. Run time: fragments execute in parallel
/// at their servers, results ship back, the integrator merges locally
/// (charging its own simulated time), and the patroller records
/// completion.
/// Threading contract (serving mode): Route is safe to call from any
/// worker thread — it prices against a calibrator snapshot pinned by
/// BeginPricing/EndPricing, and every structure it touches (plan cache,
/// tracer, metrics, explain table) locks internally. It then runs the
/// chosen option's fragments on the calling thread through
/// RemoteServer::RunAhead, which holds each server's data lock against
/// writes, so the dispatcher only prices them. Prepare mutates
/// event-thread-owned state (patroller, optimizer/meta-wrapper planning)
/// and must run inside ExecutionContext::RunExclusive when called off the
/// event thread. Execute and OnRoutingEpochBump take that exclusion
/// themselves. In simulation mode everything is single-threaded and the
/// contract is vacuous; fragments run at the server's job start.
class Integrator {
 public:
  Integrator(GlobalCatalog* catalog, MetaWrapper* meta_wrapper,
             ExecutionContext* sim, IiConfig config = {});

  QueryPatroller& patroller() { return patroller_; }
  ExplainTable& explain() { return explain_; }
  const IiConfig& config() const { return config_; }
  /// Mutable access for toggling fault tolerance between runs (tests,
  /// benches, chaos experiments).
  IiConfig& mutable_config() { return config_; }
  GlobalCatalog* catalog() { return catalog_; }
  MetaWrapper* meta_wrapper() { return meta_wrapper_; }

  /// Installs QCC's plan selector (nullptr restores the default).
  void SetPlanSelector(PlanSelector* selector);
  /// The currently installed selector (never null).
  PlanSelector* plan_selector() const { return selector_; }

  /// Background load on the integrator host itself (§3.2).
  void set_background_load(double load);
  double background_load() const { return background_load_; }

  /// Compile phase: registers the submission, fingerprints the statement,
  /// and serves the (decomposition, raw-costed candidate plans) bundle
  /// from the prepared-plan cache — compiling and inserting on a miss.
  /// Fills ctx's identity fields (query_id, fingerprint, type_signature,
  /// cache_hit). No calibration state is consulted.
  Result<PreparedPlanPtr> Prepare(const std::string& sql, QueryContext* ctx);

  /// Route phase: copies the prepared candidates, substitutes this
  /// instance's literal parameters, prices with the calibrator's current
  /// state, lets the selector choose, and records the explain entry. In
  /// serving mode it then runs the chosen fragments (fragment_runs).
  Result<CompiledQuery> Route(const PreparedPlanPtr& prepared,
                              QueryContext* ctx);

  /// Prepare + Route in one call (the pre-split API, kept for callers
  /// that don't need the phases separately).
  Result<CompiledQuery> Compile(const std::string& sql);

  /// The prepared-plan cache (epoch bumps, stats, `\cache` in the shell).
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  using Callback = std::function<void(Result<QueryOutcome>)>;

  /// Execute a compiled query asynchronously (callback fires through the
  /// simulator).
  void Execute(const CompiledQuery& compiled, Callback done);

  /// Compile + execute + drive the simulator until this query completes.
  /// Intended for tests and simple examples; workloads should use the
  /// async path with their own arrival processes.
  Result<QueryOutcome> RunSync(const std::string& sql);

  double effective_cpu_speed() const;
  double effective_io_speed() const;

  /// Deadline for one fragment attempt (infinity disables the timer).
  double FragmentDeadline(const FragmentOption& choice) const;
  /// Delay before hedging a straggler fragment (p95-style once observed
  /// fragment response times accumulate).
  double HedgeDelay(const FragmentOption& choice) const;
  /// Observed fragment response times feeding the hedge threshold.
  const RunningStats& fragment_stats() const { return fragment_stats_; }

 private:
  /// Cross-attempt state of one executing query.
  struct ExecState {
    SimTime query_started_at = 0.0;
    size_t timeouts = 0;
    size_t hedges = 0;
    size_t hedge_wins = 0;
    size_t reroutes = 0;       ///< executed switches (budget-capped)
    size_t reroute_evals = 0;  ///< evaluations, switched or held
    Rng rng{0};
  };
  /// State of one attempt (one global plan option in flight).
  struct Attempt;

  void ExecuteOption(const CompiledQuery& compiled, size_t option_index,
                     std::shared_ptr<std::vector<std::string>> failed_servers,
                     size_t retries, std::shared_ptr<ExecState> state,
                     Callback done);
  /// Issues fragment f's primary ticket plus its deadline and hedge timers
  /// on the attempt's *current* option. Called at attempt start and again
  /// whenever a mid-query switch re-dispatches the fragment.
  void DispatchFragment(const std::shared_ptr<Attempt>& attempt, size_t f);
  /// Single funnel for every ticket completion (primary or hedge).
  /// Results whose dispatch generation is stale — the fragment was
  /// re-dispatched by a switch after this ticket was issued — are dropped.
  void OnFragmentResult(const std::shared_ptr<Attempt>& attempt, size_t f,
                        const std::string& server_id, bool is_hedge, int gen,
                        Result<FragmentExecution> result);
  /// Re-route controller: re-prices the surviving candidates restricted to
  /// the not-yet-settled remainder, applies hysteresis and the switch
  /// budget, and on a switch cancels superseded tickets and re-dispatches
  /// the remainder on the winner. Returns true when a switch happened.
  /// Every evaluation — switched, held, or budget-ignored — leaves a
  /// ReRouteRecord in the flight recorder and a structured event.
  bool MaybeReroute(const std::shared_ptr<Attempt>& attempt,
                    ReRouteTrigger trigger, const std::string& trigger_detail,
                    const std::string& exclude_server);
  /// Fans an epoch bump out to every in-flight re-routable query
  /// (deferred one tick: bumps fire inside QCC callbacks mid-completion).
  void OnRoutingEpochBump(const std::string& reason);
  /// Last-resort "retry elsewhere": when the retry budget is exhausted but
  /// a plan avoiding every failed server survives, spend a switch instead
  /// of failing the query. Returns true when the fallback attempt started.
  bool TryRetryElsewhere(const CompiledQuery& compiled, size_t next_index,
                         std::shared_ptr<std::vector<std::string>> failed,
                         size_t retries, std::shared_ptr<ExecState> state,
                         const std::string& failed_server, Callback& done);
  /// Cancels every timer and outstanding ticket of a settled attempt.
  void AbortAttempt(const std::shared_ptr<Attempt>& attempt,
                    const Status& reason);
  /// Failover: pick the next plan, apply retry policy / backoff, or fail.
  void HandleAttemptFailure(
      const CompiledQuery& compiled,
      std::shared_ptr<std::vector<std::string>> failed_servers,
      size_t retries, std::shared_ptr<ExecState> state, const Status& error,
      const std::string& failed_server, Callback done);
  void FinishWithMerge(
      const CompiledQuery& compiled, size_t option_index,
      std::vector<TablePtr> fragment_tables,
      std::vector<std::shared_ptr<obs::OperatorProfile>> fragment_profiles,
      std::vector<double> fragment_observed_s, SimTime started_at,
      size_t retries, std::shared_ptr<ExecState> state, uint64_t attempt_span,
      Callback done);
  /// Assembles the per-query profile from the fragment replies plus the
  /// local merge profile, attaches it to the query's DecisionRecord, feeds
  /// the cost-model accuracy scoreboard, and emits kEstimateMiss events.
  /// Only called when config_.exec.profile is on.
  void RecordQueryProfile(
      const CompiledQuery& compiled, const GlobalPlanOption& option,
      std::vector<std::shared_ptr<obs::OperatorProfile>> fragment_profiles,
      const std::vector<double>& fragment_observed_s,
      std::shared_ptr<obs::OperatorProfile> merge_profile,
      double merge_seconds);

  GlobalCatalog* catalog_;
  MetaWrapper* meta_wrapper_;
  ExecutionContext* sim_;
  IiConfig config_;
  QueryPatroller patroller_;
  ExplainTable explain_;
  GlobalOptimizer optimizer_;
  PlanSelector default_selector_;
  PlanSelector* selector_ = &default_selector_;
  double background_load_ = 0.0;
  RunningStats fragment_stats_;
  PlanCache plan_cache_;
  /// Catalog version the cache is known coherent with; a newer catalog at
  /// Prepare time bumps the routing epoch.
  uint64_t last_catalog_version_ = 0;
  /// In-flight attempts eligible for mid-query re-routing, keyed by query
  /// id (only populated while config_.reroute.enable). Weak: the attempt
  /// dies with its last ticket/timer, entries are pruned on the next bump.
  std::map<uint64_t, std::weak_ptr<Attempt>> inflight_;
};

}  // namespace fedcal
