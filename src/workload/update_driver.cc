#include "workload/update_driver.h"

#include "common/logging.h"

namespace fedcal {

UpdateLoadDriver::UpdateLoadDriver(ExecutionContext* sim, RemoteServer* server,
                                   std::string table, TableGenSpec row_spec,
                                   UpdateLoadConfig config, Rng rng)
    : sim_(sim),
      server_(server),
      table_(std::move(table)),
      row_spec_(std::move(row_spec)),
      config_(config),
      rng_(rng) {
  task_ = std::make_unique<PeriodicTask>(sim_, config_.period_s,
                                         [this] { InsertBatch(); });
}

void UpdateLoadDriver::Start() {
  if (task_->running()) return;
  saved_load_ = server_->background_load();
  server_->set_background_load(config_.background_load);
  task_->Start();
}

void UpdateLoadDriver::Stop() {
  if (!task_->running()) return;
  task_->Stop();
  server_->set_background_load(saved_load_);
}

void UpdateLoadDriver::InsertBatch() {
  TableGenSpec batch = row_spec_;
  batch.num_rows = config_.rows_per_batch;
  auto rows = GenerateRows(batch, &rng_);
  if (!rows.ok()) {
    FEDCAL_LOG_WARN << "update driver on " << server_->id()
                    << ": generation failed: "
                    << rows.status().ToString();
    return;
  }
  const Status st = server_->AppendRows(table_, *rows);
  if (!st.ok()) {
    FEDCAL_LOG_WARN << "update driver on " << server_->id() << ": "
                    << st.ToString();
    return;
  }
  rows_inserted_ += config_.rows_per_batch;
}

}  // namespace fedcal
