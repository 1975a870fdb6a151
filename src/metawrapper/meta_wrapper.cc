#include "metawrapper/meta_wrapper.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"
#include "obs/operator_profile.h"

namespace fedcal {

using obs::CostObservation;
using obs::SpanKind;

Result<RelationalWrapper*> MetaWrapper::GetWrapper(
    const std::string& server_id) const {
  auto it = wrappers_.find(server_id);
  if (it == wrappers_.end()) {
    return Status::NotFound("no wrapper registered for server " + server_id);
  }
  return it->second;
}

std::vector<std::string> MetaWrapper::server_ids() const {
  std::vector<std::string> ids;
  ids.reserve(wrappers_.size());
  for (const auto& [id, w] : wrappers_) ids.push_back(id);
  return ids;
}

double MetaWrapper::RawEstimateSeconds(const WrapperPlan& plan) const {
  ServerProfile profile;  // defaults when the admin never registered one
  auto p = catalog_->GetServerProfile(plan.server_id);
  if (p.ok()) profile = **p;
  const double compute = plan.estimated_work / profile.configured_speed;
  const double transfer =
      profile.configured_latency_s +
      plan.estimated_bytes / profile.configured_bandwidth_bytes_per_s;
  return compute + transfer;
}

Result<std::vector<FragmentOption>> MetaWrapper::CollectFragmentPlans(
    uint64_t query_id, const SelectStmt& fragment,
    const std::vector<std::string>& candidate_servers,
    size_t max_alternatives_per_server) {
  obs::Tracer& tracer = telemetry_->tracer;
  std::vector<FragmentOption> options;
  Status last_error = Status::OK();
  for (const auto& server_id : candidate_servers) {
    auto wrapper = GetWrapper(server_id);
    if (!wrapper.ok()) {
      last_error = wrapper.status();
      continue;
    }
    auto plans =
        (*wrapper)->PlanFragment(fragment, max_alternatives_per_server);
    if (!plans.ok()) {
      last_error = plans.status();
      FEDCAL_LOG_DEBUG << "wrapper " << server_id
                       << " cannot plan fragment: "
                       << plans.status().ToString();
      continue;
    }
    for (auto& wp : *plans) {
      FragmentOption opt;
      opt.cost.raw_estimated_seconds = RawEstimateSeconds(wp);
      // Compile phase stays calibration-free so fragment options can be
      // cached; PriceGlobalPlans applies the live calibration at route
      // time. Identity value keeps unpriced consumers consistent.
      opt.cost.calibrated_seconds = opt.cost.raw_estimated_seconds;
      calibrator_->RecordEstimate(server_id, wp.signature,
                                  opt.cost.raw_estimated_seconds);
      const uint64_t span =
          tracer.AddEvent(query_id, SpanKind::kFragmentPlan, wp.statement);
      tracer.SetServer(query_id, span, server_id, wp.signature);
      tracer.SetCost(query_id, span, opt.cost);
      opt.wrapper_plan = std::move(wp);
      options.push_back(std::move(opt));
    }
  }
  telemetry_->metrics.counter("mw.plans_collected").Add(options.size());
  if (options.empty()) {
    return Status::PlanError("no server can execute fragment '" +
                             fragment.ToString() +
                             "': " + last_error.ToString());
  }
  std::stable_sort(options.begin(), options.end(),
                   [](const FragmentOption& a, const FragmentOption& b) {
                     return a.cost.calibrated_seconds <
                            b.cost.calibrated_seconds;
                   });
  return options;
}

Status MetaWrapper::ReestimateOption(FragmentOption* option) const {
  FEDCAL_ASSIGN_OR_RETURN(RelationalWrapper * wrapper,
                          GetWrapper(option->wrapper_plan.server_id));
  FEDCAL_RETURN_NOT_OK(wrapper->Reestimate(&option->wrapper_plan));
  option->cost.raw_estimated_seconds =
      RawEstimateSeconds(option->wrapper_plan);
  // Identity pricing until PriceGlobalPlans runs (mirrors compile).
  option->cost.calibrated_seconds = option->cost.raw_estimated_seconds;
  return Status::OK();
}

std::vector<MwCompileRecord> MetaWrapper::compile_log() const {
  std::vector<MwCompileRecord> log;
  for (const auto& trace : telemetry_->tracer.traces()) {
    for (const auto& span : trace.spans) {
      if (span.kind != SpanKind::kFragmentPlan) continue;
      log.push_back(MwCompileRecord{trace.query_id, span.name,
                                    span.server_id, span.signature,
                                    span.cost});
    }
  }
  return log;
}

std::vector<MwRuntimeRecord> MetaWrapper::runtime_log() const {
  std::vector<MwRuntimeRecord> log;
  for (const auto& trace : telemetry_->tracer.traces()) {
    for (const auto& span : trace.spans) {
      if (span.kind != SpanKind::kFragmentDispatch || span.open) continue;
      log.push_back(MwRuntimeRecord{trace.query_id, span.server_id,
                                    span.signature, span.cost});
    }
  }
  return log;
}

void MetaWrapper::FinishTicketSpans(const FragmentTicket& ticket,
                                    double observed, bool failed,
                                    const std::string& detail) {
  obs::Tracer& tracer = telemetry_->tracer;
  CostObservation cost;
  cost.raw_estimated_seconds = ticket.estimated_;
  cost.calibrated_seconds = ticket.calibrated_;
  cost.observed_seconds = observed;
  cost.failed = failed;
  if (ticket.stage_span_ != 0) {
    tracer.EndSpan(ticket.query_id_, ticket.stage_span_, failed, detail);
  }
  tracer.SetCost(ticket.query_id_, ticket.span_, cost);
  tracer.EndSpan(ticket.query_id_, ticket.span_, failed, detail);

  obs::MetricsRegistry& metrics = telemetry_->metrics;
  if (failed) {
    metrics.counter("fragment.failed").Add();
  } else {
    metrics.counter("fragment.completed").Add();
    metrics.histogram("fragment.response_s").Record(observed);
    metrics.histogram("fragment.response_s." + ticket.server_id_)
        .Record(observed);
  }
}

bool FragmentTicket::Cancel(const Status& reason, bool count_as_error) {
  if (finished()) return false;
  if (pending_event_ != 0) {
    mw_->sim_->Cancel(pending_event_);
    pending_event_ = 0;
  }
  if (stage_ == Stage::kExecuting && server_ != nullptr &&
      server_job_ != 0) {
    server_->CancelFragment(server_job_);
    server_job_ = 0;
  }
  stage_ = Stage::kDone;
  mw_->OnTicketCancelled(*this, reason, count_as_error);
  // Deliver asynchronously so cancellation never re-enters the caller.
  if (done_) {
    mw_->sim_->ScheduleAfter(
        0.0, [done = std::move(done_), reason] { done(reason); });
  }
  return true;
}

void MetaWrapper::OnTicketCancelled(const FragmentTicket& ticket,
                                    const Status& reason,
                                    bool count_as_error) {
  const double elapsed = sim_->Now() - ticket.submit_time_;
  FinishTicketSpans(ticket, elapsed, /*failed=*/true, reason.ToString());
  telemetry_->metrics.counter("fragment.cancelled").Add();
  if (count_as_error) {
    calibrator_->RecordError(ticket.server_id_, reason);
  }
  // Censored observation: the fragment took *at least* `elapsed` seconds.
  // Recording it only when it already exceeds the estimate means it can
  // push the calibration factor up (the straggler signal a browned-out
  // server would otherwise never produce) but never drag it down.
  if (elapsed > ticket.estimated_) {
    calibrator_->RecordFragmentObservation(ticket.server_id_,
                                           ticket.signature_,
                                           ticket.estimated_, elapsed);
  }
}

FragmentTicketPtr MetaWrapper::ExecuteFragment(uint64_t query_id,
                                               const FragmentOption& option,
                                               ExecutionCallback done,
                                               uint64_t parent_span,
                                               FragmentRunPtr run) {
  auto ticket = std::make_shared<FragmentTicket>();
  ticket->mw_ = this;
  ticket->server_id_ = option.wrapper_plan.server_id;
  ticket->query_id_ = query_id;
  ticket->signature_ = option.wrapper_plan.signature;
  ticket->estimated_ = option.cost.raw_estimated_seconds;
  ticket->calibrated_ = option.cost.calibrated_seconds;
  ticket->submit_time_ = sim_->Now();
  ticket->done_ = std::move(done);

  auto wrapper = GetWrapper(ticket->server_id_);
  if (!wrapper.ok()) {
    // Rejected before any span opened: no runtime record, matching the
    // pre-spine behaviour (nothing was dispatched).
    ticket->stage_ = FragmentTicket::Stage::kDone;
    telemetry_->metrics.counter("fragment.rejected").Add();
    sim_->ScheduleAfter(0.0, [done = std::move(ticket->done_),
                              st = wrapper.status()] { done(st); });
    return ticket;
  }
  ticket->server_ = (*wrapper)->server();

  obs::Tracer& tracer = telemetry_->tracer;
  telemetry_->metrics.counter("fragment.dispatched").Add();
  ticket->span_ =
      tracer.StartSpan(query_id, SpanKind::kFragmentDispatch,
                       "fragment@" + ticket->server_id_, parent_span);
  tracer.SetServer(query_id, ticket->span_, ticket->server_id_,
                   ticket->signature_);
  tracer.SetCost(query_id, ticket->span_, option.cost);
  ticket->stage_span_ = tracer.StartSpan(query_id, SpanKind::kNetworkHop,
                                         "request", ticket->span_);

  // Request message: a few hundred bytes of execution descriptor.
  const double request_time =
      network_->TransferTime(ticket->server_id_, 512, ticket->submit_time_);
  PlanNodePtr plan = option.wrapper_plan.plan;

  auto request = [this, ticket, plan, run = std::move(run)]() mutable {
    if (ticket->finished()) return;
    obs::Tracer& trc = telemetry_->tracer;
    ticket->pending_event_ = 0;
    ticket->stage_ = FragmentTicket::Stage::kExecuting;
    trc.EndSpan(ticket->query_id_, ticket->stage_span_);
    ticket->stage_span_ =
        trc.StartSpan(ticket->query_id_, SpanKind::kServerExec,
                      "exec@" + ticket->server_id_, ticket->span_);
    ticket->server_job_ = ticket->server_->SubmitFragment(
        plan, [this, ticket](Result<FragmentResult> result) {
          if (ticket->finished()) return;
          obs::Tracer& tr = telemetry_->tracer;
          ticket->server_job_ = 0;
          if (!result.ok()) {
            ticket->stage_ = FragmentTicket::Stage::kDone;
            calibrator_->RecordError(ticket->server_id_, result.status());
            FinishTicketSpans(*ticket, sim_->Now() - ticket->submit_time_,
                              /*failed=*/true, result.status().ToString());
            auto cb = std::move(ticket->done_);
            cb(result.status());
            return;
          }
          FragmentResult server_result = std::move(result).MoveValue();
          ticket->stage_ = FragmentTicket::Stage::kReply;
          tr.EndSpan(ticket->query_id_, ticket->stage_span_);
          ticket->stage_span_ =
              tr.StartSpan(ticket->query_id_, SpanKind::kReplyHop, "reply",
                           ticket->span_);
          const double reply_time = network_->TransferTime(
              ticket->server_id_, server_result.table->byte_size(),
              sim_->Now());
          ticket->pending_event_ = sim_->ScheduleAfter(
              reply_time,
              [this, ticket,
               server_result = std::move(server_result)]() mutable {
                if (ticket->finished()) return;
                ticket->pending_event_ = 0;
                ticket->stage_ = FragmentTicket::Stage::kDone;
                FragmentExecution exec;
                exec.table = server_result.table;
                exec.response_seconds = sim_->Now() - ticket->submit_time_;
                exec.server_result = std::move(server_result);
                calibrator_->RecordSuccess(ticket->server_id_);
                // The reply's operator profile (when profiling is on)
                // tells the calibrator whether excess time traces to a
                // cardinality miss rather than server speed.
                const bool cardinality_suspect =
                    exec.server_result.profile != nullptr &&
                    obs::WorstQError(*exec.server_result.profile) >=
                        telemetry_->recorder.config().estimate_miss_qerror;
                calibrator_->RecordFragmentObservation(
                    ticket->server_id_, ticket->signature_,
                    ticket->estimated_, exec.response_seconds,
                    cardinality_suspect);
                FinishTicketSpans(*ticket, exec.response_seconds,
                                  /*failed=*/false, "");
                auto cb = std::move(ticket->done_);
                cb(std::move(exec));
              });
        },
        std::move(run));
  };
  ticket->pending_event_ =
      sim_->ScheduleAfter(request_time, std::move(request));
  return ticket;
}

Result<MetaWrapper::ProbeResult> MetaWrapper::ProbeServer(
    const std::string& server_id) {
  FEDCAL_ASSIGN_OR_RETURN(RelationalWrapper * wrapper, GetWrapper(server_id));
  RemoteServer* server = wrapper->server();
  telemetry_->metrics.counter("mw.probes." + server_id).Add();

  ServerProfile profile;
  if (auto p = catalog_->GetServerProfile(server_id); p.ok()) profile = **p;

  if (!server->available()) {
    calibrator_->RecordError(server_id,
                             Status::Unavailable("probe: server down"));
    telemetry_->metrics.counter("mw.probe_failures." + server_id).Add();
    return Status::Unavailable("server " + server_id + " did not answer");
  }

  // Probe = tiny scan of the server's smallest table (bare ping when the
  // server hosts nothing).
  const auto names = server->table_names();
  ProbeResult probe;
  double observed_compute = 0.0;
  double expected_compute = 0.0;
  if (!names.empty()) {
    std::string smallest = names.front();
    size_t smallest_rows = SIZE_MAX;
    for (const auto& n : names) {
      auto t = server->GetTable(n);
      if (t.ok() && (*t)->num_rows() < smallest_rows) {
        smallest_rows = (*t)->num_rows();
        smallest = n;
      }
    }
    FEDCAL_ASSIGN_OR_RETURN(TablePtr table, server->GetTable(smallest));
    PlanNodePtr probe_plan =
        PlanNode::Limit(PlanNode::Scan(smallest, table->schema()), 1);
    auto result = server->ExecuteNow(probe_plan);
    if (!result.ok()) {
      calibrator_->RecordError(server_id, result.status());
      telemetry_->metrics.counter("mw.probe_failures." + server_id).Add();
      return result.status();
    }
    observed_compute = result->server_seconds;
    expected_compute =
        result->exec_stats.work_units / profile.configured_speed;
  }
  calibrator_->RecordSuccess(server_id);
  auto link = network_->GetLink(server_id);
  const double rtt =
      link.ok() ? (*link)->ProbeRtt(sim_->Now()) : 0.001;
  probe.observed_seconds = rtt + observed_compute;
  probe.expected_seconds =
      2.0 * profile.configured_latency_s + expected_compute;
  return probe;
}

}  // namespace fedcal
