#include "runtime/checkpoint.hpp"

namespace vdce::rt {

void CheckpointStore::record(AppId app, TaskId task, int attempt,
                             HostId host, dm::FrameView frame,
                             Duration compute_s) {
  std::lock_guard lk(mu_);
  auto& tasks = apps_[app];
  const auto it = tasks.find(task);
  if (it != tasks.end()) {
    // Idempotent re-capture; only a strictly higher attempt replaces.
    if (attempt <= it->second.attempt) return;
    stats_.bytes_captured -= it->second.frame.size();
    ++stats_.tasks_replaced;
  } else {
    ++stats_.tasks_captured;
  }
  CheckpointEntry entry;
  entry.task = task;
  entry.attempt = attempt;
  entry.host = host;
  entry.frame = std::move(frame);  // refcount bump upstream, no copy here
  entry.compute_s = compute_s;
  stats_.bytes_captured += entry.frame.size();
  tasks[task] = std::move(entry);
}

void CheckpointStore::record(AppId app, TaskId task, int attempt,
                             HostId host, const tasklib::Payload& output,
                             Duration compute_s) {
  record(app, task, attempt, host, output.wire(), compute_s);
}

bool CheckpointStore::completed(AppId app, TaskId task) const {
  std::lock_guard lk(mu_);
  const auto it = apps_.find(app);
  return it != apps_.end() && it->second.contains(task);
}

std::optional<CheckpointEntry> CheckpointStore::replay(AppId app,
                                                       TaskId task) const {
  std::lock_guard lk(mu_);
  const auto it = apps_.find(app);
  if (it == apps_.end()) return std::nullopt;
  const auto entry = it->second.find(task);
  if (entry == it->second.end()) return std::nullopt;
  ++stats_.frames_replayed;
  return entry->second;
}

std::size_t CheckpointStore::completed_count(AppId app) const {
  std::lock_guard lk(mu_);
  const auto it = apps_.find(app);
  return it == apps_.end() ? 0 : it->second.size();
}

std::vector<TaskId> CheckpointStore::completed_tasks(AppId app) const {
  std::lock_guard lk(mu_);
  std::vector<TaskId> out;
  const auto it = apps_.find(app);
  if (it == apps_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [task, _] : it->second) out.push_back(task);
  return out;
}

void CheckpointStore::drop_app(AppId app) {
  std::lock_guard lk(mu_);
  const auto it = apps_.find(app);
  if (it == apps_.end()) return;
  for (const auto& [_, entry] : it->second) {
    stats_.bytes_captured -= entry.frame.size();
  }
  apps_.erase(it);
  ++stats_.apps_dropped;
}

CheckpointStats CheckpointStore::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace vdce::rt
