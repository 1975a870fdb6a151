#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include <sys/resource.h>

#include "ledger.h"
#include "reference.h"
#include "workload/runner.h"
#include "workload/scenario.h"
#include "workload/update_driver.h"

namespace perfbench {
namespace {

using fedcal::CompiledQuery;
using fedcal::QueryOutcome;
using fedcal::Result;
using fedcal::Scenario;
using fedcal::Status;
using fedcal::StatusCode;
using fedcal::obs::OperatorProfile;
using fedcal::obs::QueryProfile;

constexpr double kInf = std::numeric_limits<double>::infinity();

// -- Paper-experiment inputs --------------------------------------------------

constexpr int kPhases = 8;  // Table 1's load combinations
/// The §5.1 heavy update load as the library models it: one batch of
/// rows_per_batch inserts every period_s virtual seconds per loaded server.
const fedcal::UpdateLoadConfig kUpdateLoad{};
/// Batches generated per server; a pass that needs more reuses them in
/// order (the rows are never selected, so reuse changes no answer).
constexpr size_t kWritePoolBatches = 32;
/// peak_rss_mib of a closed loop is VmHWM once this many measured queries
/// have completed (or at the end of a shorter window), so memory that
/// grows per query counts the same whatever the host's speed.
constexpr uint64_t kRssCheckpointQueries = 400;
/// Testbed constructions timed per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Virtual seconds a simulated client waits after a failed query.
constexpr double kFailureBackoffS = 0.5;
/// Inserted rows carry keys far above every generated key.
constexpr int64_t kInsertKeyBase = 10'000'000;

/// splitmix64: the benchmark's own seeded generator, independent of the
/// library's RNG so inputs depend on nothing but the seed.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double UniformUnit(uint64_t* state) {
  return static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
}

int64_t UniformInt(uint64_t* state, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(NextRandom(state) %
                                   static_cast<uint64_t>(hi - lo + 1));
}

// -- Per-query bookkeeping ----------------------------------------------------

enum class Verdict : uint8_t {
  kOk,
  kCompileError,
  kExecError,
  kFaultError,  ///< failed because an injected fault left no way through
  kWrong,
};

struct QueryRecord {
  uint64_t query_id = 0;
  uint32_t stmt = 0;
  Verdict verdict = Verdict::kOk;
  double latency_s = kInf;  ///< +inf unless the query succeeded
  double virt_s = 0.0;
  uint64_t checksum = 0;
  uint32_t retries = 0;
  uint32_t reroutes = 0;
  uint32_t fragments = 0;   ///< fragments of the plan whose rows merged
  uint32_t candidates = 0;  ///< plan options Route priced
  uint8_t phase = 0;        ///< Table-1 load phase (simulator only)
  int64_t done_ns = 0;      ///< completion callback (wall clock)
};

/// Operator self wall time and work from the EXPLAIN ANALYZE profile.
struct EngineTotals {
  enum Kind { kScan, kFilter, kHashJoin, kAggregate, kProject, kSort, kOther,
              kKinds };
  double self_s[kKinds] = {};
  double merge_s = 0.0;
  double rows = 0.0;
  double arena_bytes = 0.0;

  static Kind KindOf(const std::string& op) {
    if (op == "Scan" || op == "IndexScan") return kScan;
    if (op == "Filter") return kFilter;
    if (op == "HashJoin") return kHashJoin;
    if (op == "Aggregate") return kAggregate;
    if (op == "Project") return kProject;
    if (op == "Sort") return kSort;
    return kOther;
  }
  double total_s() const {
    double t = 0.0;
    for (double v : self_s) t += v;
    return t;
  }
  void Walk(const OperatorProfile& node, bool merge) {
    self_s[KindOf(node.op)] += node.self_wall_s;
    if (merge) merge_s += node.self_wall_s;
    rows += static_cast<double>(node.rows_out);
    for (const auto& child : node.children) {
      if (child) Walk(*child, merge);
    }
  }
  void Add(const QueryProfile& p) {
    for (const auto& f : p.fragments) {
      if (!f.root) continue;
      Walk(*f.root, false);
      arena_bytes += static_cast<double>(f.root->arena_bytes);
    }
    if (p.merge) {
      Walk(*p.merge, true);
      arena_bytes += static_cast<double>(p.merge->arena_bytes);
    }
  }
  void Merge(const EngineTotals& o) {
    for (int k = 0; k < kKinds; ++k) self_s[k] += o.self_s[k];
    merge_s += o.merge_s;
    rows += o.rows;
    arena_bytes += o.arena_bytes;
  }
};

/// Program-side counters sampled at the edges of a measured window.
struct Counters {
  fedcal::PlanCache::Stats cache;
  uint64_t events = 0;
  uint64_t fragments = 0;  ///< completed + failed + cancelled, all servers

  static Counters Read(Scenario& sc) {
    Counters c;
    // The server counters belong to the dispatcher.
    sc.ctx().RunExclusive([&] {
      c.cache = sc.integrator().plan_cache().stats();
      c.events = sc.serving() != nullptr ? sc.serving()->fired_events()
                                         : sc.sim().fired_events();
      for (const auto& id : sc.server_ids()) {
        const fedcal::RemoteServer& s = sc.server(id);
        c.fragments += s.fragments_completed() + s.fragments_failed() +
                       s.fragments_cancelled();
      }
    });
    return c;
  }
};

/// A unit of repeated work: one pass of the paper experiment, or a whole
/// closed-loop window.
struct Block {
  double wall_s = 0.0;             ///< from the previous block's last completion
  std::vector<double> latency_s;   ///< +inf for failed queries
};

/// Everything one measured window (or several merged) produced.
struct Window {
  std::vector<QueryRecord> queries;
  double wall_s = 0.0;
  EngineTotals engine;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t epoch_bumps = 0;
  uint64_t events = 0;
  uint64_t fragments = 0;
  std::vector<double> append_us;
  uint64_t rows_appended = 0;
  uint64_t spans = 0;
  uint64_t traces_held = 0;
  std::vector<double> rss_slopes;  ///< KiB per query, one per window
  /// The window's units of repeated work; the wall-clock metrics are read
  /// from the slowest of them.
  std::vector<Block> blocks;
  double dispatch_lag_p95_s = 0.0;
  double cpu_s = 0.0;      ///< process CPU time (all threads) in the window
  double peak_kib = 0.0;   ///< VmHWM at the RSS checkpoint (serving)
  bool input_errors = false;  ///< a fault schedule or insert batch was refused

  void Count(const Counters& before, const Counters& after) {
    cache_hits += after.cache.hits - before.cache.hits;
    cache_lookups += (after.cache.hits + after.cache.misses) -
                     (before.cache.hits + before.cache.misses);
    epoch_bumps += after.cache.epoch_bumps - before.cache.epoch_bumps;
    events += after.events - before.events;
    fragments += after.fragments - before.fragments;
  }
  void Merge(const Window& o) {
    queries.insert(queries.end(), o.queries.begin(), o.queries.end());
    wall_s += o.wall_s;
    engine.Merge(o.engine);
    cache_hits += o.cache_hits;
    cache_lookups += o.cache_lookups;
    epoch_bumps += o.epoch_bumps;
    events += o.events;
    fragments += o.fragments;
    append_us.insert(append_us.end(), o.append_us.begin(), o.append_us.end());
    rows_appended += o.rows_appended;
    spans += o.spans;
    traces_held = std::max(traces_held, o.traces_held);
    rss_slopes.insert(rss_slopes.end(), o.rss_slopes.begin(),
                      o.rss_slopes.end());
    blocks.insert(blocks.end(), o.blocks.begin(), o.blocks.end());
    dispatch_lag_p95_s = std::max(dispatch_lag_p95_s, o.dispatch_lag_p95_s);
    cpu_s += o.cpu_s;
    peak_kib = std::max(peak_kib, o.peak_kib);
    input_errors = input_errors || o.input_errors;
  }
  /// Tracer spans of the window's queries and the traces still held.
  /// Call after the window's queries completed.
  void CountSpans(Scenario& sc) {
    const fedcal::obs::Tracer& tracer = sc.telemetry().tracer;
    // Trace walks are unsynchronized; keep event callbacks out meanwhile.
    sc.ctx().RunExclusive([&] {
      for (const QueryRecord& q : queries) {
        if (const fedcal::obs::QueryTrace* t = tracer.Find(q.query_id)) {
          spans += t->spans.size();
        }
      }
      traces_held = tracer.size();
    });
  }
};

/// The whole window as one block.
Block WholeWindow(const Window& w) {
  Block b{w.wall_s, {}};
  for (const QueryRecord& q : w.queries) b.latency_s.push_back(q.latency_s);
  return b;
}

bool IsFaultStatus(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kTimeout ||
         (s.code() == StatusCode::kExecutionError &&
          s.message().find("transient fault") != std::string::npos);
}

/// The §5 experiment (load phases, faults, writes) rather than a plain
/// closed loop over the statement stream.
bool IsPaperExperiment(const WorkloadSpec& spec) {
  return spec.rounds_per_phase > 0;
}

fedcal::ScenarioConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed,
                                  bool profile) {
  fedcal::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.large_rows = spec.large_rows;
  cfg.small_rows = spec.small_rows;
  cfg.full_replication = spec.full_replication;
  cfg.columnar_engine = true;
  cfg.profile = profile;
  if (spec.serving) {
    cfg.exec_mode = fedcal::ExecMode::kServing;
    cfg.serving_workers = spec.clients;
    cfg.serving_time_scale = 0.0;
  }
  return cfg;
}

/// Scenario construction, QCC attach and warm-up: everything before the
/// first measured query.
std::unique_ptr<Scenario> BuildTestbed(const WorkloadSpec& spec,
                                       uint64_t seed, bool profile) {
  auto sc = std::make_unique<Scenario>(MakeConfig(spec, seed, profile));
  fedcal::QccConfig qcc;
  const bool paper = IsPaperExperiment(spec);
  if (paper) {
    fedcal::IiConfig& ii = sc->integrator().mutable_config();
    ii.fault.enable_deadlines = true;
    ii.reroute.enable = true;
  } else {
    // As in bench_concurrent_serving: in serving mode the daemons would
    // free-run probes on the dispatcher between submissions.
    qcc.enable_availability_daemon = false;
  }
  sc->qcc(qcc).AttachTo(&sc->integrator());
  // §5.1 exploration: every template on every server, so QCC has
  // calibrated each one and every server has its plans and mirrors built.
  fedcal::WorkloadRunner(sc.get()).ExplorationPass(paper ? 4 : 1);
  return sc;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(u.ru_utime) + seconds(u.ru_stime);
}

// -- The client side of one query ---------------------------------------------

struct InFlight {
  uint32_t stmt = 0;
  int64_t t_call = 0;       ///< call into Prepare, before the exclusion wait
  int64_t t_executed = 0;   ///< Execute returned
  CompiledQuery compiled;
};

/// Wraps the benchmark's calls into Prepare, Route and Execute with
/// timestamps and spans, checks every outcome against the reference, and
/// records it in the window. Compile/Execute run on the submitting
/// thread; Finish runs wherever the outcome is in hand.
class QueryClient {
 public:
  QueryClient(Scenario* sc, const Reference* ref, SpanLedger* ledger,
         bool profile, bool faults_expected, Window* window)
      : sc_(sc),
        ref_(ref),
        ledger_(ledger),
        profile_(profile),
        faults_expected_(faults_expected),
        window_(window) {}

  /// Prepare (inside the dispatcher's exclusion, as Integrator::Compile
  /// does) then Route. Records a compile failure and returns false if
  /// either fails.
  bool Compile(uint32_t stmt, InFlight* q) {
    fedcal::Integrator& ii = sc_->integrator();
    q->stmt = stmt;
    q->t_call = NowNs();
    fedcal::QueryContext qctx;
    Result<fedcal::PreparedPlanPtr> prepared =
        Status::Internal("prepare never ran");
    int64_t t_in = 0;
    int64_t t_out = 0;
    sc_->ctx().RunExclusive([&] {
      t_in = NowNs();
      prepared = ii.Prepare(ref_->sql[stmt], &qctx);
      t_out = NowNs();
    });
    ledger_->Add(SpanName::kExclusiveWait, qctx.query_id, q->t_call, t_in);
    ledger_->Add(SpanName::kPrepare, qctx.query_id, t_in, t_out);
    if (!prepared.ok()) {
      RecordCompileFailure(stmt, qctx.query_id);
      return false;
    }
    const int64_t r0 = NowNs();
    Result<CompiledQuery> compiled = ii.Route(*prepared, &qctx);
    ledger_->Add(SpanName::kRoute, qctx.query_id, r0, NowNs());
    if (!compiled.ok()) {
      RecordCompileFailure(stmt, qctx.query_id);
      return false;
    }
    q->compiled = compiled.MoveValue();
    return true;
  }

  /// Execute inside the exclusion; `done` fires on completion.
  void Execute(InFlight* q, fedcal::Integrator::Callback done) {
    const int64_t t0 = NowNs();
    int64_t t_in = 0;
    sc_->ctx().RunExclusive([&] {
      t_in = NowNs();
      sc_->integrator().Execute(q->compiled, std::move(done));
      q->t_executed = NowNs();
    });
    const uint64_t id = q->compiled.query_id;
    ledger_->Add(SpanName::kExclusiveWait, id, t0, t_in);
    ledger_->Add(SpanName::kExecute, id, t_in, q->t_executed);
  }

  /// The executed query's operator profile (profiled runs only). Call
  /// from the completion callback, where the decision record is fresh.
  std::shared_ptr<QueryProfile> ProfileOf(const Result<QueryOutcome>& r) {
    if (!profile_ || !r.ok()) return nullptr;
    const fedcal::obs::DecisionRecord* d =
        sc_->telemetry().recorder.Find(r->query_id);
    return d != nullptr ? d->profile : nullptr;
  }

  void set_phase(int phase) { phase_ = static_cast<uint8_t>(phase); }

  void Finish(const InFlight& q, const Result<QueryOutcome>& r,
              int64_t t_done, const std::shared_ptr<QueryProfile>& profile) {
    const uint64_t id = q.compiled.query_id;
    ledger_->Add(SpanName::kAwait, id, q.t_executed, t_done);
    QueryRecord rec;
    rec.query_id = id;
    rec.stmt = q.stmt;
    rec.phase = phase_;
    rec.done_ns = t_done;
    rec.candidates = static_cast<uint32_t>(q.compiled.options.size());
    if (!r.ok()) {
      rec.verdict = faults_expected_ && IsFaultStatus(r.status())
                        ? Verdict::kFaultError
                        : Verdict::kExecError;
    } else {
      ScopedSpan check(ledger_, SpanName::kCheck, id);
      ResultDigest digest;
      const bool match =
          r->table != nullptr &&
          MatchesReference(*r->table, ref_->answers[q.stmt], &digest);
      rec.verdict = match ? Verdict::kOk : Verdict::kWrong;
      rec.checksum = digest.checksum;
      rec.virt_s = r->total_response_seconds;
      rec.retries = static_cast<uint32_t>(r->retries);
      rec.reroutes = static_cast<uint32_t>(r->reroutes);
      rec.fragments =
          static_cast<uint32_t>(r->executed_plan.fragment_choices.size());
      if (match) {
        rec.latency_s = static_cast<double>(t_done - q.t_call) / 1e9;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (profile) window_->engine.Add(*profile);
    window_->queries.push_back(rec);
  }

 private:
  void RecordCompileFailure(uint32_t stmt, uint64_t query_id) {
    QueryRecord rec;
    rec.query_id = query_id;
    rec.stmt = stmt;
    rec.phase = phase_;
    rec.done_ns = NowNs();
    rec.verdict = Verdict::kCompileError;
    std::lock_guard<std::mutex> lock(mu_);
    window_->queries.push_back(rec);
  }

  Scenario* sc_;
  const Reference* ref_;
  SpanLedger* ledger_;
  bool profile_;
  bool faults_expected_;
  Window* window_;
  uint8_t phase_ = 0;
  std::mutex mu_;
};

// -- Client loops ---------------------------------------------------------------

/// `VmRSS` against completed queries, sampled once a round.
struct RssTrack {
  std::vector<double> queries;
  std::vector<double> kib;

  void Sample(uint64_t done) {
    if (done % kStatements != 0) return;
    queries.push_back(static_cast<double>(done));
    kib.push_back(ProcStatusKiB("VmRSS"));
  }
  double SlopeKiBPerQuery() const { return Slope(queries, kib); }
};

/// The simulator's closed loop of one load phase: keeps `clients` queries
/// in flight until `next` has no statement left. Each completion is
/// checked, then its client sends the next statement, kFailureBackoffS
/// virtual seconds later if the query failed: a real client waits before
/// retrying, and failures cost no virtual time otherwise, so the loop
/// would drain the stream without the clock ever reaching the probe that
/// brings a server back. `after` runs after every finished query (compile
/// failures included).
void DriveSimLoop(Scenario& sc, QueryClient* client, int clients,
                  const std::function<bool(uint32_t*)>& next,
                  const std::function<void()>& after, SpanLedger* ledger) {
  fedcal::Simulator& sim = sc.sim();
  size_t in_flight = 0;
  std::function<void()> pump = [&] {
    uint32_t stmt = 0;
    while (in_flight < static_cast<size_t>(clients) && next(&stmt)) {
      auto q = std::make_shared<InFlight>();
      if (!client->Compile(stmt, q.get())) {
        after();
        continue;
      }
      ++in_flight;
      client->Execute(q.get(), [&, q](Result<QueryOutcome> r) {
        client->Finish(*q, r, NowNs(), client->ProfileOf(r));
        after();
        auto send_next = [&] {
          --in_flight;
          pump();
        };
        if (r.ok()) {
          send_next();
        } else {
          sim.ScheduleAfter(kFailureBackoffS, send_next);
        }
      });
    }
  };
  pump();
  while (in_flight > 0) {
    ScopedSpan step(ledger, SpanName::kSimStep, 0);
    if (!sim.Step()) break;
  }
}

/// One closed-loop window on the ServingRuntime: `clients` pool workers
/// each send a query, wait for its completion, check it, and send the
/// next. `seconds` > 0 ends the stream at the first round boundary past
/// that many seconds; 0 runs the stream to its end.
Window RunLoopWindow(Scenario& sc, const WorkloadSpec& spec,
                     const Reference& ref, StatementStream* stream,
                     double seconds, SpanLedger* ledger, bool profile) {
  Window w;
  fedcal::ServingRuntime* rt = sc.serving();
  QueryClient client(&sc, &ref, ledger, profile, /*faults_expected=*/false, &w);
  std::atomic<uint64_t> done{0};
  const Counters before = Counters::Read(sc);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  for (int i = 0; i < spec.clients; ++i) {
    rt->Submit([&] {
      uint32_t stmt = 0;
      while (stream->Next(&stmt)) {
        InFlight q;
        if (client.Compile(stmt, &q)) {
          // Written by the completion callback under the dispatch
          // exclusion, read by AwaitCondition under the same exclusion.
          struct {
            bool finished = false;
            int64_t t_done = 0;
            Result<QueryOutcome> outcome = Status::Internal("not finished");
            std::shared_ptr<QueryProfile> profile;
          } completion;
          client.Execute(&q, [&](Result<QueryOutcome> r) {
            completion.t_done = NowNs();
            completion.profile = client.ProfileOf(r);
            completion.outcome = std::move(r);
            completion.finished = true;
          });
          rt->AwaitCondition([&] { return completion.finished; });
          client.Finish(q, completion.outcome, completion.t_done,
                        completion.profile);
        }
        if (done.fetch_add(1) + 1 == kRssCheckpointQueries) {
          w.peak_kib = ProcStatusKiB("VmHWM");
        }
      }
    });
  }
  std::vector<double> rss_x;
  std::vector<double> rss_y;
  if (seconds > 0) {
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      rss_x.push_back(static_cast<double>(done.load()));
      rss_y.push_back(ProcStatusKiB("VmRSS"));
    }
    stream->StopAtRoundEnd();
  }
  rt->WaitIdle();
  int64_t end = start + 1;
  for (const QueryRecord& q : w.queries) end = std::max(end, q.done_ns);
  w.wall_s = static_cast<double>(end - start) / 1e9;
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.blocks.push_back(WholeWindow(w));
  if (done.load() < kRssCheckpointQueries) {
    w.peak_kib = ProcStatusKiB("VmHWM");
  }
  w.Count(before, Counters::Read(sc));
  w.rss_slopes.push_back(Slope(rss_x, rss_y));
  if (ledger->enabled()) {
    w.CountSpans(sc);
    const auto snap = sc.telemetry().metrics.Snapshot();
    if (auto it = snap.histograms.find("sched.dispatch_lag_s");
        it != snap.histograms.end()) {
      w.dispatch_lag_p95_s = it->second.p95;
    }
  }
  return w;
}

// -- The paper experiment -------------------------------------------------------

struct PassResult {
  Window window;
  uint64_t fingerprint = 0;
};

uint64_t FingerprintOf(const Window& w, size_t faults_applied) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (const QueryRecord& q : w.queries) {
    uint64_t bits = 0;
    std::memcpy(&bits, &q.virt_s, sizeof(bits));
    mix(q.stmt);
    mix(static_cast<uint64_t>(q.verdict));
    mix(bits);
    mix(q.checksum);
    mix(q.retries);
    mix(q.reroutes);
    mix(q.fragments);
  }
  mix(w.cache_hits);
  mix(w.cache_lookups);
  mix(w.epoch_bumps);
  mix(w.events);
  mix(w.fragments);
  mix(w.rows_appended);
  mix(faults_applied);
  return h;
}

/// One pass of the §5 experiment on a fresh testbed: the eight Table-1
/// load phases in order, each running its share of the statement stream
/// with `clients` queries in flight, while insert batches land on every
/// loaded server and the phase's faults fire.
PassResult RunPaperPass(const WorkloadSpec& spec, const PaperInputs& in,
                      const Reference& ref, Scenario& sc, SpanLedger* ledger,
                      bool profile) {
  PassResult pass;
  fedcal::Simulator& sim = sc.sim();
  Window& w = pass.window;
  QueryClient client(&sc, &ref, ledger, profile, /*faults_expected=*/true, &w);
  std::map<std::string, size_t> next_batch;
  RssTrack rss;

  const Counters before = Counters::Read(sc);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const size_t per_phase =
      static_cast<size_t>(spec.rounds_per_phase) * kStatements;
  size_t pos = 0;
  for (int phase = 1; phase <= kPhases; ++phase) {
    sc.ApplyPhase(phase);
    client.set_phase(phase);
    if (auto it = in.faults_by_phase.find(phase);
        it != in.faults_by_phase.end()) {
      fedcal::FaultSchedule schedule;
      for (fedcal::FaultEvent e : it->second) {
        e.at += sim.Now();
        schedule.events.push_back(e);
      }
      if (!sc.fault_injector().Arm(schedule).ok()) w.input_errors = true;
    }
    std::vector<std::unique_ptr<fedcal::PeriodicTask>> writers;
    for (const auto& id : sc.server_ids()) {
      if (!Scenario::LoadedInPhase(phase, id)) continue;
      const auto& [table, batches] = in.writes.at(id);
      writers.push_back(std::make_unique<fedcal::PeriodicTask>(
          &sim, kUpdateLoad.period_s,
          [&, id, table = table, batches = &batches] {
            const auto& batch = (*batches)[next_batch[id]++ % batches->size()];
            const int64_t a0 = NowNs();
            const Status st = sc.server(id).AppendRows(table, batch);
            const int64_t a1 = NowNs();
            ledger->Add(SpanName::kAppendRows, 0, a0, a1);
            w.append_us.push_back(NsToUs(a1 - a0));
            w.rows_appended += batch.size();
            if (!st.ok()) w.input_errors = true;
          },
          kUpdateLoad.period_s));
      writers.back()->Start();
    }

    const size_t end = std::min(pos + per_phase, in.stream.size());
    DriveSimLoop(
        sc, &client, spec.clients,
        [&](uint32_t* stmt) {
          if (pos >= end) return false;
          *stmt = in.stream[pos++];
          return true;
        },
        [&] { rss.Sample(w.queries.size()); }, ledger);
    for (auto& writer : writers) writer->Stop();
  }
  w.wall_s = SecondsSince(start);
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.blocks.push_back(WholeWindow(w));
  w.Count(before, Counters::Read(sc));
  w.rss_slopes.push_back(rss.SlopeKiBPerQuery());
  if (ledger->enabled()) w.CountSpans(sc);
  pass.fingerprint = FingerprintOf(
      w, sc.fault_injector().applied_events());
  return pass;
}

// -- Metrics ----------------------------------------------------------------------

void AddMetric(RunReport* r, const std::string& name, double value,
               const std::string& unit) {
  r->metrics.push_back({name, value, unit});
}

void Line(RunReport* r, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void Line(RunReport* r, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  r->lines.emplace_back(buf);
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t compile = 0;
  uint64_t exec = 0;
  uint64_t fault = 0;
  uint64_t wrong = 0;

  explicit Tally(const Window& w) {
    for (const QueryRecord& q : w.queries) {
      ++attempted;
      switch (q.verdict) {
        case Verdict::kOk: ++ok; break;
        case Verdict::kCompileError: ++compile; break;
        case Verdict::kExecError: ++exec; break;
        case Verdict::kFaultError: ++fault; break;
        case Verdict::kWrong: ++wrong; break;
      }
    }
  }
  /// Failures no injected fault explains: the run is wrong if any.
  uint64_t unexpected() const { return compile + exec + wrong; }
  uint64_t failed() const { return attempted - ok; }
};

/// Folds a window's verdicts into the report's correctness and counts.
void Account(RunReport* r, const Window& w) {
  const Tally t(w);
  r->attempted += t.attempted;
  r->failed += t.unexpected();
  if (t.unexpected() > 0 || w.input_errors || t.attempted == 0) {
    r->correct = false;
  }
}

double QueriesPerSecond(const Window& w) {
  return w.wall_s > 0 ? static_cast<double>(w.queries.size()) / w.wall_s
                      : 0.0;
}

/// The blocks the wall-clock metrics are read from: the slowest quarter
/// of them by wall time per query, and at least kMinQueries queries (so a
/// p95 over them has ten samples beyond it). Throughput is their queries
/// over their wall time, and latency percentiles pool their queries. Each
/// block repeats the same work, so blocks differ only in how fast the host
/// ran them, and the host speeds up in bursts of seconds: the slowest
/// blocks are where it ran at its floor speed. On the paper experiment a
/// block is a pass. A closed loop on the ServingRuntime is one block: no
/// shorter stretch of it repeats the same work, because how its clients'
/// queries meet in the dispatcher changes from stretch to stretch.
struct Floor {
  size_t blocks = 0;
  size_t of_blocks = 0;
  double qps = 0.0;
  std::vector<double> latency_ms;

  static constexpr size_t kMinQueries = 200;

  explicit Floor(std::vector<Block> all) {
    of_blocks = all.size();
    std::sort(all.begin(), all.end(), [](const Block& a, const Block& b) {
      return a.wall_s / a.latency_s.size() > b.wall_s / b.latency_s.size();
    });
    const size_t quarter = (all.size() + 3) / 4;
    double wall_s = 0.0;
    for (const Block& b : all) {
      if (blocks >= quarter && latency_ms.size() >= kMinQueries) break;
      ++blocks;
      wall_s += b.wall_s;
      for (double v : b.latency_s) latency_ms.push_back(v * 1e3);
    }
    qps = wall_s > 0 ? static_cast<double>(latency_ms.size()) / wall_s : 0.0;
  }
};

void AddEndToEnd(RunReport* r, const Window& w, double setup_s,
                 double peak_kib) {
  const Tally t(w);
  const Floor floor(w.blocks);
  std::vector<double> virt_all;
  std::vector<double> virt_ok;
  for (const QueryRecord& q : w.queries) {
    const bool ok = q.verdict == Verdict::kOk;
    virt_all.push_back(ok ? q.virt_s : kInf);
    if (ok) virt_ok.push_back(q.virt_s);
  }
  const double p95 = Percentile(floor.latency_ms, 95);
  size_t beyond = 0;
  for (double v : floor.latency_ms) beyond += v > p95 ? 1 : 0;
  AddMetric(r, "throughput_qps", floor.qps, "1/s");
  AddMetric(r, "latency_p50_ms", Percentile(floor.latency_ms, 50), "ms");
  AddMetric(r, "virt_mean_s", Mean(virt_ok), "s");
  AddMetric(r, "virt_p95_s", Percentile(virt_all, 95), "s");
  AddMetric(r, "success_frac",
            t.attempted ? static_cast<double>(t.ok) / t.attempted : 0.0, "1");
  AddMetric(r, "peak_rss_mib", peak_kib / 1024.0, "MiB");
  AddMetric(r, "setup_s", setup_s, "s");
  Line(r, "  measured %llu queries in %.3f s (%.2f/s overall)",
       static_cast<unsigned long long>(t.attempted), w.wall_s,
       QueriesPerSecond(w));
  Line(r, "  wall-clock metrics from the slowest %zu of %zu blocks: "
       "%zu latency samples, %zu beyond p95%s",
       floor.blocks, floor.of_blocks, floor.latency_ms.size(), beyond,
       beyond < 10 ? " (too few: p95 is not resolved)" : "");
  // Printed, not bounded: the tail follows the host's speed further than
  // throughput does (perfbench/README.md, Steadiness).
  Line(r, "  latency_p95_ms %.6g ms (report only, not in the JSON)", p95);
  Line(r,
       "  failed_frac %.6f (%llu of %llu: %llu compile, %llu execution, "
       "%llu under injected faults, %llu wrong results)",
       t.attempted ? static_cast<double>(t.failed()) / t.attempted : 0.0,
       static_cast<unsigned long long>(t.failed()),
       static_cast<unsigned long long>(t.attempted),
       static_cast<unsigned long long>(t.compile),
       static_cast<unsigned long long>(t.exec),
       static_cast<unsigned long long>(t.fault),
       static_cast<unsigned long long>(t.wrong));
}

/// Per-layer metrics of the traced window `w`. The RSS slope and the
/// tracing overhead's base come from the untraced windows `plain`, where
/// neither the ledger nor the operator profile holds memory.
void AddPerLayer(RunReport* r, const Window& w, const Window& plain,
                 const SpanLedger& ledger, bool simulated) {
  const double n = std::max<double>(1.0, static_cast<double>(w.queries.size()));
  const std::vector<int64_t> self = ledger.SelfTimesNs();
  std::vector<double> durations_us[static_cast<int>(SpanName::kCount)];
  double step_self_s = 0.0;
  const auto& spans = ledger.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    durations_us[static_cast<int>(spans[i].name)].push_back(
        NsToUs(spans[i].duration_ns()));
    if (spans[i].name == SpanName::kSimStep) step_self_s += self[i] / 1e9;
  }
  auto us = [&](SpanName name) -> const std::vector<double>& {
    return durations_us[static_cast<int>(name)];
  };
  uint64_t candidates = 0, retries = 0, reroutes = 0, useful = 0, failed = 0;
  for (const QueryRecord& q : w.queries) {
    candidates += q.candidates;
    retries += q.retries;
    reroutes += q.reroutes;
    if (q.verdict == Verdict::kOk) useful += q.fragments;
    if (q.verdict != Verdict::kOk) ++failed;
  }
  const EngineTotals& e = w.engine;
  const double engine_s = e.total_s();
  std::vector<double> await_ms;
  for (double v : us(SpanName::kAwait)) await_ms.push_back(v / 1e3);

  double federation_us = 0.0;
  for (SpanName name : {SpanName::kPrepare, SpanName::kRoute, SpanName::kExecute}) {
    for (double v : us(name)) federation_us += v;
  }
  AddMetric(r, "federation.prepare_p50_us", Percentile(us(SpanName::kPrepare), 50), "us");
  AddMetric(r, "federation.route_p50_us", Percentile(us(SpanName::kRoute), 50), "us");
  AddMetric(r, "federation.execute_p50_us", Percentile(us(SpanName::kExecute), 50), "us");
  AddMetric(r, "federation.candidates_per_query", candidates / n, "count");
  AddMetric(r, "federation.cache_hit_ratio",
            w.cache_lookups ? static_cast<double>(w.cache_hits) / w.cache_lookups
                            : 0.0,
            "1");
  AddMetric(r, "federation.cache_lookups", static_cast<double>(w.cache_lookups), "count");
  AddMetric(r, "federation.retries_per_query", retries / n, "count");
  AddMetric(r, "federation.reroutes_per_query", reroutes / n, "count");
  AddMetric(r, "federation.failed_frac", failed / n, "1");
  AddMetric(r, "federation.share", w.cpu_s > 0 ? federation_us / 1e6 / w.cpu_s : 0.0,
            "1");
  AddMetric(r, "core.epoch_bumps", static_cast<double>(w.epoch_bumps), "count");
  AddMetric(r, "core.exclusive_wait_p50_us",
            Percentile(us(SpanName::kExclusiveWait), 50), "us");
  AddMetric(r, "core.exclusive_wait_p95_us",
            Percentile(us(SpanName::kExclusiveWait), 95), "us");
  AddMetric(r, "core.await_p50_ms", Percentile(await_ms, 50), "ms");
  AddMetric(r, "core.await_p95_ms", Percentile(await_ms, 95), "ms");
  AddMetric(r, "core.events_per_query", w.events / n, "count");
  AddMetric(r, "core.dispatch_lag_p95_us", w.dispatch_lag_p95_s * 1e6, "us");
  AddMetric(r, "engine.ms_per_query", engine_s * 1e3 / n, "ms");
  AddMetric(r, "engine.share", w.cpu_s > 0 ? engine_s / w.cpu_s : 0.0, "1");
  static const char* kKindNames[EngineTotals::kKinds] = {
      "engine.scan_ms",    "engine.filter_ms", "engine.hash_join_ms",
      "engine.aggregate_ms", "engine.project_ms", "engine.sort_ms",
      "engine.other_ms"};
  for (int k = 0; k < EngineTotals::kKinds; ++k) {
    AddMetric(r, kKindNames[k], e.self_s[k] * 1e3 / n, "ms");
  }
  AddMetric(r, "engine.merge_ms", e.merge_s * 1e3 / n, "ms");
  AddMetric(r, "engine.rows_per_query", e.rows / n, "count");
  AddMetric(r, "engine.arena_kib_per_query", e.arena_bytes / 1024.0 / n, "KiB");
  AddMetric(r, "server.fragments_per_query", w.fragments / n, "count");
  AddMetric(r, "server.fragments_dispatched", static_cast<double>(w.fragments), "count");
  AddMetric(r, "server.useful_ratio",
            w.fragments ? static_cast<double>(useful) / w.fragments : 0.0, "1");
  AddMetric(r, "storage.append_p50_us", Percentile(w.append_us, 50), "us");
  AddMetric(r, "storage.rows_appended", static_cast<double>(w.rows_appended), "count");
  AddMetric(r, "obs.spans_per_query", w.spans / n, "count");
  AddMetric(r, "obs.traces_held", static_cast<double>(w.traces_held), "count");
  AddMetric(r, "obs.rss_kib_per_query", Median(plain.rss_slopes), "KiB");
  // The Step loop's own time: its spans minus the benchmark-timed calls
  // nested in them and minus the operators the profile timed inside it.
  AddMetric(r, "sim.event_us",
            simulated && w.events
                ? std::max(0.0, step_self_s - engine_s) * 1e6 / w.events
                : 0.0,
            "us");
  const double untraced_qps = QueriesPerSecond(plain);
  AddMetric(r, "trace.overhead_frac",
            untraced_qps > 0 ? 1.0 - QueriesPerSecond(w) / untraced_qps : 0.0,
            "1");
}

void WriteTrace(RunReport* r, const SpanLedger& ledger, const std::string& path,
                const std::string& name) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << ledger.ChromeTraceJson(name);
  if (out) {
    Line(r, "  wrote %zu spans to %s", ledger.spans().size(), path.c_str());
  } else {
    Line(r, "  could not write %s", path.c_str());
  }
}

// -- Runs -------------------------------------------------------------------------

/// BuildTestbed, appending the construction's wall time to `setups` if
/// given.
std::unique_ptr<Scenario> BuildTestbedTimed(const WorkloadSpec& spec,
                                            uint64_t seed, bool profile,
                                            std::vector<double>* setups) {
  const int64_t t0 = NowNs();
  std::unique_ptr<Scenario> sc = BuildTestbed(spec, seed, profile);
  if (setups != nullptr) setups->push_back(SecondsSince(t0));
  return sc;
}

/// Builds the testbed kSetupRepeats times, timing each construction into
/// `setups`, and keeps the last one. A small testbed builds in tens of
/// milliseconds with ±20% jitter; the median of nine holds still.
std::unique_ptr<Scenario> BuildTimedTestbed(const WorkloadSpec& spec,
                                            uint64_t seed,
                                            std::vector<double>* setups) {
  std::unique_ptr<Scenario> sc;
  for (int k = 0; k < kSetupRepeats; ++k) {
    sc.reset();
    // Only the testbed that is measured counts toward the peak; the heap
    // its predecessors left in per-thread arenas does not.
    ResetPeakRss();
    sc = BuildTestbedTimed(spec, seed, /*profile=*/false, setups);
  }
  return sc;
}

/// A closed loop over the statement stream on the ServingRuntime.
void RunLoop(const WorkloadSpec& spec, const RunOptions& opt,
             const Reference& ref, RunReport* r) {
  const double seconds = opt.fixed_rounds > 0 ? 0.0 : opt.seconds;
  SpanLedger untraced(false);
  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<Scenario> sc = BuildTimedTestbed(spec, opt.seed, &setups);
    StatementStream stream(opt.seed, opt.fixed_rounds);
    const Window w =
        RunLoopWindow(*sc, spec, ref, &stream, seconds, &untraced, false);
    r->issued = stream.Issued();
    Account(r, w);
    AddEndToEnd(r, w, Median(setups), w.peak_kib);
    return;
  }
  // Untraced, traced, untraced again: the untraced throughput brackets
  // the traced window, so drift and warm-up do not pose as overhead.
  std::unique_ptr<Scenario> plain_sc = BuildTestbed(spec, opt.seed, false);
  std::unique_ptr<Scenario> traced_sc = BuildTestbed(spec, opt.seed, true);
  auto plain_window = [&] {
    StatementStream stream(opt.seed, opt.fixed_rounds);
    return RunLoopWindow(*plain_sc, spec, ref, &stream, seconds / 4,
                            &untraced, false);
  };
  Window plain = plain_window();
  SpanLedger ledger(true);
  StatementStream stream(opt.seed, opt.fixed_rounds);
  const Window traced = RunLoopWindow(*traced_sc, spec, ref, &stream,
                                         seconds / 2, &ledger, true);
  plain.Merge(plain_window());
  Account(r, plain);
  Account(r, traced);
  AddPerLayer(r, traced, plain, ledger, /*simulated=*/false);
  WriteTrace(r, ledger, opt.trace_path, spec.name);
}

/// Whole passes, each on a fresh testbed whose construction is timed into
/// `setups` (if given), or exactly opt.fixed_rounds passes. Without fixed
/// rounds the passes end at the pass boundary nearest to `seconds` (at
/// least `min_passes`): a pass lasts about ten seconds, and stopping at the
/// first boundary past the deadline would add half of one to every window
/// on average.
std::vector<PassResult> RunPaperPasses(const WorkloadSpec& spec,
                                     const RunOptions& opt,
                                     const PaperInputs& in, const Reference& ref,
                                     double seconds, size_t min_passes,
                                     SpanLedger* ledger, bool profile,
                                     std::vector<double>* setups = nullptr) {
  std::vector<PassResult> passes;
  const int64_t start = NowNs();
  for (;;) {
    {
      // Dropped before the clock is read, so a pass's share of the
      // window includes tearing its testbed down.
      std::unique_ptr<Scenario> sc =
          BuildTestbedTimed(spec, opt.seed, profile, setups);
      passes.push_back(RunPaperPass(spec, in, ref, *sc, ledger, profile));
    }
    if (opt.fixed_rounds > 0) {
      if (passes.size() >= opt.fixed_rounds) break;
      continue;
    }
    const double elapsed = SecondsSince(start);
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (passes.size() >= min_passes && elapsed + per_pass / 2 >= seconds) {
      break;
    }
  }
  return passes;
}

Window MergePasses(const std::vector<PassResult>& passes, RunReport* r) {
  Window merged;
  for (const PassResult& p : passes) {
    merged.Merge(p.window);
    if (p.fingerprint != passes.front().fingerprint) {
      r->correct = false;
      Line(r, "  NONDETERMINISTIC: pass fingerprints differ (%016llx vs %016llx)",
           static_cast<unsigned long long>(p.fingerprint),
           static_cast<unsigned long long>(passes.front().fingerprint));
    }
  }
  r->fingerprint = passes.front().fingerprint;
  return merged;
}

/// The pass's fault schedule and where its queries failed, by phase.
void DescribePaperPass(RunReport* r, const PaperInputs& in, const Window& w) {
  for (const auto& [phase, events] : in.faults_by_phase) {
    for (const fedcal::FaultEvent& e : events) {
      Line(r, "  fault in phase %d at +%.2fs: %s", phase, e.at,
           e.Describe().c_str());
    }
  }
  int failed[kPhases + 1] = {};
  for (const QueryRecord& q : w.queries) {
    if (q.verdict != Verdict::kOk && q.phase <= kPhases) ++failed[q.phase];
  }
  std::string by_phase;
  for (int p = 1; p <= kPhases; ++p) {
    by_phase += " " + std::to_string(p) + ":" + std::to_string(failed[p]);
  }
  Line(r, "  failed queries by phase:%s", by_phase.c_str());
}

void RunPaper(const WorkloadSpec& spec, const RunOptions& opt,
            const Reference& ref, RunReport* r) {
  const PaperInputs in = MakePaperInputs(spec, opt.seed);
  SpanLedger untraced(false);
  if (!opt.trace) {
    // Every pass's testbed is a timed construction; testbeds built and
    // dropped after the passes top the samples up to kSetupRepeats.
    std::vector<double> setups;
    const std::vector<PassResult> passes =
        RunPaperPasses(spec, opt, in, ref, opt.seconds, /*min_passes=*/3,
                       &untraced, false, &setups);
    const double peak_kib = ProcStatusKiB("VmHWM");
    while (setups.size() < static_cast<size_t>(kSetupRepeats)) {
      BuildTestbedTimed(spec, opt.seed, /*profile=*/false, &setups);
    }
    const Window w = MergePasses(passes, r);
    Account(r, w);
    // Every pass repeats the same seeded experiment, so the virtual
    // metrics over all passes equal those of any one pass.
    AddEndToEnd(r, w, Median(setups), peak_kib);
    Line(r, "  %zu passes of %zu queries; fingerprint %016llx",
         passes.size(), passes.front().window.queries.size(),
         static_cast<unsigned long long>(r->fingerprint));
    DescribePaperPass(r, in, passes.front().window);
    return;
  }
  // Untraced, traced, untraced again (see RunLoop).
  std::vector<PassResult> plain_passes = RunPaperPasses(
      spec, opt, in, ref, opt.seconds / 4, 1, &untraced, false);
  SpanLedger ledger(true);
  const std::vector<PassResult> traced_passes = RunPaperPasses(
      spec, opt, in, ref, opt.seconds / 2, 1, &ledger, true);
  for (PassResult& p : RunPaperPasses(spec, opt, in, ref, opt.seconds / 4, 1,
                                    &untraced, false)) {
    plain_passes.push_back(std::move(p));
  }
  // Profiled passes may route differently (the profile keeps estimate
  // misses out of calibration), so only passes of one kind must agree.
  const Window plain = MergePasses(plain_passes, r);
  const Window traced = MergePasses(traced_passes, r);
  Account(r, plain);
  Account(r, traced);
  AddPerLayer(r, traced, plain, ledger, /*simulated=*/true);
  WriteTrace(r, ledger, opt.trace_path, spec.name);
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // Why each workload exists: perfbench/README.md.
      {"serve_medium", /*serving=*/true, 25'000, 200, /*full_replication=*/true,
       /*clients=*/3, /*rounds_per_phase=*/0},
      {"sim_paper", false, 20'000, 1'000, false, 4, 1},
  };
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

StatementStream::StatementStream(uint64_t seed, size_t max_rounds)
    : rng_state_(seed ^ 0x5eed5eed00000001ULL), max_rounds_(max_rounds) {}

bool StatementStream::Next(uint32_t* stmt) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t pos = issued_.size() % kStatements;
  if (pos == 0) {
    if (stopping_ || (max_rounds_ > 0 && rounds_ >= max_rounds_)) {
      return false;
    }
    ++rounds_;
    // Ten groups of four, each group one instance of every template in a
    // seeded order, each template's ten instances in a seeded order.
    auto shuffle = [&](uint32_t* v, size_t n) {
      for (size_t i = n; i > 1; --i) {
        std::swap(v[i - 1], v[NextRandom(&rng_state_) % i]);
      }
    };
    uint32_t instances[4][kInstancesPerTemplate];
    for (uint32_t t = 0; t < 4; ++t) {
      for (uint32_t i = 0; i < kInstancesPerTemplate; ++i) {
        instances[t][i] = t * kInstancesPerTemplate + i;
      }
      shuffle(instances[t], kInstancesPerTemplate);
    }
    round_.clear();
    for (uint32_t g = 0; g < kInstancesPerTemplate; ++g) {
      uint32_t order[4] = {0, 1, 2, 3};
      shuffle(order, 4);
      for (uint32_t t : order) round_.push_back(instances[t][g]);
    }
  }
  *stmt = round_[pos];
  issued_.push_back(*stmt);
  return true;
}

void StatementStream::StopAtRoundEnd() {
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
}

std::vector<uint32_t> StatementStream::Issued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return issued_;
}

PaperInputs MakePaperInputs(const WorkloadSpec& spec, uint64_t seed) {
  PaperInputs in;
  StatementStream stream(seed, static_cast<size_t>(kPhases) *
                                   spec.rounds_per_phase);
  for (uint32_t stmt = 0; stream.Next(&stmt);) in.stream.push_back(stmt);

  // Four faults, one of each kind, in four distinct phases (never the
  // first, so QCC has calibrated before the first fault). Servers that
  // fail or slow down are sales hosts (S1, S2), which back each other up;
  // S3, the only employee host, only sees its link congested, so every
  // fault leaves the federation a way to answer. A fault hits the sales
  // host QCC prefers in its phase (the one without update load, when the
  // phase loads exactly one), so it lands on queries in flight.
  uint64_t fault_rng = seed ^ 0xfa0175c4ed01e5ULL;
  std::vector<int> phases = {2, 3, 4, 5, 6, 7, 8};
  for (size_t i = phases.size(); i > 1; --i) {
    std::swap(phases[i - 1], phases[NextRandom(&fault_rng) % i]);
  }
  using Kind = fedcal::FaultEvent::Kind;
  const Kind kinds[] = {Kind::kBrownout, Kind::kErrorBurst, Kind::kCongestion,
                        Kind::kOutage};
  for (int k = 0; k < 4; ++k) {
    fedcal::FaultEvent e;
    e.kind = kinds[k];
    e.at = 0.2 + 1.0 * UniformUnit(&fault_rng);
    const int phase = phases[k];
    const bool s1_loaded = Scenario::LoadedInPhase(phase, "S1");
    const bool s2_loaded = Scenario::LoadedInPhase(phase, "S2");
    const bool coin = NextRandom(&fault_rng) % 2 == 0;
    const bool hit_s1 = s1_loaded != s2_loaded ? s2_loaded : coin;
    e.target = e.kind == Kind::kCongestion ? "S3" : hit_s1 ? "S1" : "S2";
    // Magnitudes and durations are the benchmark's own choice, not the
    // paper's (its §5 has no faults): each lasts a few virtual seconds,
    // long enough to catch queries in flight and to need a retry or a
    // re-route, short enough that a phase outlives it.
    switch (e.kind) {
      case Kind::kBrownout:
        e.magnitude = 0.85;
        e.duration_s = 3.0;
        break;
      case Kind::kErrorBurst:
        e.magnitude = 0.3;
        e.duration_s = 2.0;
        break;
      case Kind::kCongestion:
        e.magnitude = 5.0;
        e.bandwidth_divisor = 5.0;
        e.duration_s = 3.0;
        break;
      default:
        e.duration_s = 1.5;
        break;
    }
    in.faults_by_phase[phase].push_back(e);
  }

  // Insert batches. Every inserted row is one no statement selects:
  // sales rows have negative amounts (every predicate is amount > 500 or
  // more), employees belong to no department and have no sales. So the
  // writes cost what writes cost (appends, invalidated columnar mirrors,
  // stale statistics) while every statement keeps one reference answer.
  uint64_t write_rng = seed ^ 0x3717e5ba7c4e5ULL;
  const char* regions[] = {"north", "south", "east", "west", "emea", "apac"};
  int64_t key = kInsertKeyBase;
  for (const char* id : {"S1", "S2", "S3"}) {
    const bool employee = std::string(id) == "S3";
    auto& [table, batches] = in.writes[id];
    table = employee ? "employee" : "sales";
    batches.resize(kWritePoolBatches);
    for (auto& batch : batches) {
      for (size_t i = 0; i < kUpdateLoad.rows_per_batch; ++i) {
        fedcal::Row row;
        row.emplace_back(key++);
        if (employee) {
          row.emplace_back(UniformInt(&write_rng, 61, 99));
          row.emplace_back(30'000.0 + 90'000.0 * UniformUnit(&write_rng));
          row.emplace_back(UniformInt(&write_rng, 8, 20));
        } else {
          row.emplace_back(UniformInt(
              &write_rng, 0, static_cast<int64_t>(spec.large_rows) - 1));
          row.emplace_back(-1.0 - 999.0 * UniformUnit(&write_rng));
          row.emplace_back(std::string(regions[NextRandom(&write_rng) % 6]));
        }
        batch.push_back(std::move(row));
      }
    }
  }
  return in;
}

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& opt) {
  RunReport r;
  // The reference is computed before anything is timed, and its memory
  // is handed back before the peak-RSS window opens.
  Reference ref;
  {
    std::string error;
    if (!ComputeReference(MakeConfig(spec, opt.seed, false), &ref, &error)) {
      r.correct = false;
      Line(&r, "  reference failed: %s", error.c_str());
      return r;
    }
  }
  ResetPeakRss();
  if (IsPaperExperiment(spec)) {
    RunPaper(spec, opt, ref, &r);
  } else {
    RunLoop(spec, opt, ref, &r);
  }
  return r;
}

}  // namespace perfbench
