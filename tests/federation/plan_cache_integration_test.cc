// End-to-end tests of the compile/route split and the prepared-plan
// cache: repeated statement shapes must hit, a hit must skip every
// compile-phase stage (asserted through tracer spans), cached routing
// must return byte-identical rows to a full compile even across a
// calibration change, and every epoch-bump source (calibration drift,
// availability transitions, breaker transitions, catalog edits) must
// invalidate.
#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "sql/fingerprint.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

ScenarioConfig TinyConfig() {
  ScenarioConfig cfg;
  cfg.large_rows = 1'200;
  cfg.small_rows = 120;
  return cfg;
}

/// Every cell of every row, rendered — byte-level result identity.
std::string RowsToString(const Table& t) {
  std::string out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (const Value& v : t.row(r)) {
      out += v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

TEST(PlanCacheIntegrationTest, RepeatedStatementShapesHitTheCache) {
  // Ten instances of the same query type differ only in their literal
  // parameter: one full compile, nine cache hits.
  Scenario sc(TinyConfig());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(sc.integrator()
                  .RunSync(sc.MakeQueryInstance(QueryType::kQT1, i))
                  .status());
  }
  const PlanCache& cache = sc.integrator().plan_cache();
  EXPECT_EQ(cache.stats().hits, 9u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_GT(cache.stats().HitRate(), 0.8);

  // The hit/miss story is visible in the metrics registry too.
  const obs::MetricsSnapshot snap = sc.telemetry().metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("plan_cache.hit"), 9u);
  EXPECT_EQ(snap.counters.at("plan_cache.miss"), 1u);
  EXPECT_GT(snap.gauges.at("plan_cache.hit_rate"), 0.8);
  EXPECT_EQ(snap.gauges.at("plan_cache.size"), 1.0);
}

TEST(PlanCacheIntegrationTest, CacheHitSkipsEveryCompilePhase) {
  Scenario sc(TinyConfig());
  sc.qcc().AttachTo(&sc.integrator());
  auto first =
      sc.integrator().RunSync(sc.MakeQueryInstance(QueryType::kQT1, 0));
  ASSERT_OK(first.status());
  auto second =
      sc.integrator().RunSync(sc.MakeQueryInstance(QueryType::kQT1, 1));
  ASSERT_OK(second.status());

  const obs::Tracer& tracer = sc.telemetry().tracer;
  const obs::QueryTrace* cold = tracer.Find(first->query_id);
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->CountKind(obs::SpanKind::kParse), 1u);
  EXPECT_EQ(cold->CountKind(obs::SpanKind::kDecompose), 1u);
  EXPECT_EQ(cold->CountKind(obs::SpanKind::kOptimize), 1u);
  EXPECT_GE(cold->CountKind(obs::SpanKind::kFragmentPlan), 1u);
  EXPECT_EQ(cold->CountKind(obs::SpanKind::kRoute), 1u);

  // The hit's route path does no parse/bind/decompose/enumerate work:
  // those spans simply do not exist on its trace.
  const obs::QueryTrace* hit = tracer.Find(second->query_id);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->CountKind(obs::SpanKind::kParse), 0u);
  EXPECT_EQ(hit->CountKind(obs::SpanKind::kDecompose), 0u);
  EXPECT_EQ(hit->CountKind(obs::SpanKind::kOptimize), 0u);
  EXPECT_EQ(hit->CountKind(obs::SpanKind::kFragmentPlan), 0u);
  ASSERT_EQ(hit->CountKind(obs::SpanKind::kRoute), 1u);
  const obs::Span* route = nullptr;
  for (const auto& s : hit->spans) {
    if (s.kind == obs::SpanKind::kRoute) route = &s;
  }
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->Attr("cache"), "hit");

  // The flight recorder tells the same story: decision flagged as a
  // cache hit, with a plan_cache note, and explain renders it.
  const obs::DecisionRecord* d =
      sc.telemetry().recorder.Find(second->query_id);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->cache_hit);
  bool note_seen = false;
  for (const auto& n : sc.telemetry().recorder.notes()) {
    if (n.source == "plan_cache") note_seen = true;
  }
  EXPECT_TRUE(note_seen);
  EXPECT_NE(obs::ExplainText(*d).find("prepared-plan cache hit"),
            std::string::npos);
  const obs::DecisionRecord* d0 =
      sc.telemetry().recorder.Find(first->query_id);
  ASSERT_NE(d0, nullptr);
  EXPECT_FALSE(d0->cache_hit);
}

TEST(PlanCacheIntegrationTest,
     CachedRowsIdenticalToFreshCompileAcrossCalibrationChange) {
  // Scenario A serves the second instance from the cache; scenario B
  // (same seed, cache disabled) full-compiles it. In between, both
  // absorb the same sub-drift-threshold calibration change, so A's
  // cached entry stays valid while its route-phase pricing shifts.
  // Results must be byte-identical.
  auto run = [](bool enable_cache, std::string* rows_out) {
    Scenario sc(TinyConfig());
    sc.integrator().mutable_config().enable_plan_cache = enable_cache;
    QueryCostCalibrator& qcc = sc.qcc();
    qcc.AttachTo(&sc.integrator());
    ASSERT_OK(sc.integrator()
                  .RunSync(sc.MakeQueryInstance(QueryType::kQT1, 0))
                  .status());
    // Sub-drift calibration change (factor 1.0 -> ~1.4 stays inside the
    // 50% drift threshold, so no epoch bump).
    for (int i = 0; i < 3; ++i) {
      qcc.RecordFragmentObservation("S3", 0, 1.0, 1.4);
    }
    auto outcome =
        sc.integrator().RunSync(sc.MakeQueryInstance(QueryType::kQT1, 1));
    ASSERT_OK(outcome.status());
    const PlanCache::Stats& st = sc.integrator().plan_cache().stats();
    if (enable_cache) {
      EXPECT_GE(st.hits, 1u) << "second instance should have hit";
    } else {
      EXPECT_EQ(st.hits + st.misses, 0u);
    }
    *rows_out = RowsToString(*outcome->table);
  };
  std::string cached, fresh;
  {
    SCOPED_TRACE("cached");
    run(true, &cached);
  }
  {
    SCOPED_TRACE("fresh");
    run(false, &fresh);
  }
  EXPECT_FALSE(cached.empty());
  EXPECT_EQ(cached, fresh);
}

TEST(PlanCacheIntegrationTest, CalibrationDriftBumpsEpoch) {
  Scenario sc(TinyConfig());
  QueryCostCalibrator& qcc = sc.qcc();
  qcc.AttachTo(&sc.integrator());
  const PlanCache& cache = sc.integrator().plan_cache();
  const uint64_t before = cache.epoch();
  // A sharp calibration move (factor 1.0 -> ~5x) crosses the drift
  // detector's 50% threshold and must invalidate cached pricing.
  qcc.RecordFragmentObservation("S1", 0, 1.0, 1.0);
  for (int i = 0; i < 5; ++i) {
    qcc.RecordFragmentObservation("S1", 0, 1.0, 5.0);
  }
  EXPECT_GT(cache.epoch(), before);
  EXPECT_NE(cache.last_invalidation_reason().find("calibration-drift:S1"),
            std::string::npos);
  const obs::MetricsSnapshot snap = sc.telemetry().metrics.Snapshot();
  EXPECT_GE(snap.counters.at("plan_cache.epoch_bumps"), 1u);
  EXPECT_EQ(snap.gauges.at("plan_cache.epoch"),
            static_cast<double>(cache.epoch()));
}

TEST(PlanCacheIntegrationTest, AvailabilityTransitionsBumpEpoch) {
  Scenario sc(TinyConfig());
  sc.qcc().AttachTo(&sc.integrator());
  const PlanCache& cache = sc.integrator().plan_cache();

  // A short window: enough for the 5s-period probe daemon to notice the
  // outage, but fewer failed probes than the circuit-breaker threshold,
  // so the down transition is the only epoch-bump source.
  sc.server("S2").SetAvailable(false);
  sc.sim().RunUntil(sc.sim().Now() + 12.0);
  const uint64_t after_down = cache.epoch();
  EXPECT_GE(after_down, 1u);
  EXPECT_EQ(cache.last_invalidation_reason(), "server-down:S2");

  sc.server("S2").SetAvailable(true);
  sc.sim().RunUntil(sc.sim().Now() + 130.0);  // recovery probe lands
  EXPECT_GT(cache.epoch(), after_down);
  EXPECT_EQ(cache.last_invalidation_reason(), "server-up:S2");
}

TEST(PlanCacheIntegrationTest, BreakerTransitionBumpsEpoch) {
  Scenario sc(TinyConfig());
  QccConfig cfg;
  cfg.breaker.failure_threshold = 3;
  cfg.enable_reliability = false;
  QueryCostCalibrator& qcc = sc.qcc(cfg);
  qcc.AttachTo(&sc.integrator());
  const PlanCache& cache = sc.integrator().plan_cache();

  sc.server("S3").set_error_rate(1.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(sc.integrator()
                  .RunSync(sc.MakeQueryInstance(QueryType::kQT1, i))
                  .status());
  }
  ASSERT_TRUE(qcc.breakers().IsOpen("S3", sc.sim().Now()));
  EXPECT_GE(cache.stats().epoch_bumps, 1u);
  bool saw_open_reason =
      cache.last_invalidation_reason() == "breaker-open:S3";
  // Later queries may have bumped again (retries, more errors); the open
  // transition must at least have been the reason at some point — assert
  // via the reason still naming S3's breaker or a subsequent S3 event.
  EXPECT_TRUE(saw_open_reason ||
              cache.last_invalidation_reason().find("S3") !=
                  std::string::npos)
      << cache.last_invalidation_reason();
}

TEST(PlanCacheIntegrationTest, SubstitutedHitCostsMatchFreshCompile) {
  // A hit with different literals re-costs the substituted plans, so the
  // options entering pricing are numerically identical to a cold compile
  // of the instance. Without this, QCC would pair observations with the
  // template's estimates and calibration trajectories would diverge
  // between cached and uncached runs (caught by the fig10/fig11 bench
  // baselines before this re-cost pass existed).
  Scenario cached_sc(TinyConfig());
  Scenario fresh_sc(TinyConfig());
  fresh_sc.integrator().mutable_config().enable_plan_cache = false;

  // Warm (or cold-compile) the template instance in both federations.
  ASSERT_OK(cached_sc.integrator()
                .Compile(cached_sc.MakeQueryInstance(QueryType::kQT1, 0))
                .status());
  ASSERT_OK(fresh_sc.integrator()
                .Compile(fresh_sc.MakeQueryInstance(QueryType::kQT1, 0))
                .status());

  auto cached = cached_sc.integrator().Compile(
      cached_sc.MakeQueryInstance(QueryType::kQT1, 3));
  auto fresh = fresh_sc.integrator().Compile(
      fresh_sc.MakeQueryInstance(QueryType::kQT1, 3));
  ASSERT_OK(cached.status());
  ASSERT_OK(fresh.status());
  ASSERT_TRUE(cached->cache_hit);

  ASSERT_EQ(cached->options.size(), fresh->options.size());
  EXPECT_EQ(cached->chosen_index, fresh->chosen_index);
  for (size_t i = 0; i < cached->options.size(); ++i) {
    const GlobalPlanOption& c = cached->options[i];
    const GlobalPlanOption& f = fresh->options[i];
    EXPECT_EQ(c.identity, f.identity) << "option " << i;
    EXPECT_EQ(c.server_set, f.server_set) << "option " << i;
    EXPECT_DOUBLE_EQ(c.total_raw_seconds, f.total_raw_seconds)
        << "option " << i;
    EXPECT_DOUBLE_EQ(c.merge_estimated_seconds, f.merge_estimated_seconds)
        << "option " << i;
    ASSERT_EQ(c.fragment_choices.size(), f.fragment_choices.size());
    for (size_t j = 0; j < c.fragment_choices.size(); ++j) {
      EXPECT_DOUBLE_EQ(c.fragment_choices[j].cost.raw_estimated_seconds,
                       f.fragment_choices[j].cost.raw_estimated_seconds)
          << "option " << i << " fragment " << j;
    }
  }
}

/// Every node's estimated_rows and estimated_work, in preorder.
void CollectAnnotations(const PlanNodePtr& node, std::vector<double>* out) {
  if (node == nullptr) return;
  out->push_back(node->estimated_rows);
  out->push_back(node->estimated_work);
  CollectAnnotations(node->left, out);
  CollectAnnotations(node->right, out);
}

/// The annotations of every merge and fragment plan of `options`.
std::vector<double> Annotations(const std::vector<GlobalPlanOption>& options) {
  std::vector<double> out;
  for (const GlobalPlanOption& option : options) {
    CollectAnnotations(option.merge_plan, &out);
    for (const FragmentOption& fc : option.fragment_choices) {
      CollectAnnotations(fc.wrapper_plan.plan, &out);
    }
  }
  return out;
}

TEST(PlanCacheIntegrationTest, SubstitutedRouteLeavesTemplateAnnotations) {
  // Route re-costs a substituted instance's plans in place. They must be
  // private copies, or the cached template's estimates would drift to
  // whichever instance was routed last.
  ScenarioConfig cfg = TinyConfig();
  cfg.full_replication = false;  // merges with more than a passthrough
  Scenario sc(cfg);
  bool recosted = false;
  for (QueryType type : AllQueryTypes()) {
    const std::string sql = sc.MakeQueryInstance(type, 0);
    ASSERT_OK(sc.integrator().Compile(sql).status());
    const PreparedPlanPtr prepared =
        sc.integrator().plan_cache().Lookup(FingerprintSql(sql).canonical_sql);
    ASSERT_NE(prepared, nullptr) << QueryTypeName(type);
    const std::vector<double> before = Annotations(prepared->options);
    for (int instance : {3, 5, 8}) {
      auto compiled =
          sc.integrator().Compile(sc.MakeQueryInstance(type, instance));
      ASSERT_OK(compiled.status());
      ASSERT_TRUE(compiled->cache_hit) << QueryTypeName(type);
      recosted |= Annotations(compiled->options) != before;
    }
    EXPECT_EQ(Annotations(prepared->options), before) << QueryTypeName(type);
  }
  // Some instance was estimated differently from its template, so a
  // shared node would have shown.
  EXPECT_TRUE(recosted);
}

TEST(PlanCacheIntegrationTest, ExplainRendersTheMergePlanAsRouted) {
  // The explain table keeps each winner's merge plan, not its text:
  // rendering it later, after more routes of the same statement, must
  // give what rendering it right after its own Route gave.
  ScenarioConfig cfg = TinyConfig();
  cfg.full_replication = false;
  Scenario sc(cfg);
  struct Routed {
    uint64_t query_id;
    std::string text;
  };
  std::vector<Routed> routed;
  // A cold compile, a cache hit with the same literals, a substituted hit.
  for (int instance : {0, 0, 3}) {
    auto compiled = sc.integrator().Compile(
        sc.MakeQueryInstance(QueryType::kQT2, instance));
    ASSERT_OK(compiled.status());
    EXPECT_EQ(compiled->cache_hit, !routed.empty());
    const ExplainEntry* e = sc.integrator().explain().Find(compiled->query_id);
    ASSERT_NE(e, nullptr);
    ASSERT_NE(e->merge_plan, nullptr);
    routed.push_back({compiled->query_id, e->merge_plan->ToString()});
  }
  for (int instance : {1, 5, 7, 0, 3}) {
    ASSERT_OK(sc.integrator()
                  .Compile(sc.MakeQueryInstance(QueryType::kQT2, instance))
                  .status());
  }
  for (const Routed& r : routed) {
    const ExplainEntry* e = sc.integrator().explain().Find(r.query_id);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->merge_plan->ToString(), r.text) << "query " << r.query_id;
  }
}

TEST(PlanCacheIntegrationTest, CatalogEditBumpsEpochAtNextPrepare) {
  Scenario sc(TinyConfig());
  const PlanCache& cache = sc.integrator().plan_cache();
  ASSERT_OK(sc.integrator()
                .RunSync(sc.MakeQueryInstance(QueryType::kQT2, 0))
                .status());
  const uint64_t before = cache.epoch();

  // Any catalog mutation (here: an admin profile edit) advances the
  // catalog version; the next Prepare notices and bumps the epoch, so
  // the repeat recompiles instead of hitting.
  auto profile = sc.catalog().GetServerProfile("S1");
  ASSERT_OK(profile.status());
  ServerProfile edited = **profile;
  edited.configured_speed *= 2.0;
  sc.catalog().SetServerProfile(edited);

  ASSERT_OK(sc.integrator()
                .RunSync(sc.MakeQueryInstance(QueryType::kQT2, 1))
                .status());
  EXPECT_EQ(cache.epoch(), before + 1);
  EXPECT_EQ(cache.last_invalidation_reason(), "catalog-change");
  EXPECT_EQ(cache.stats().invalidated, 1u);
}

}  // namespace
}  // namespace fedcal
