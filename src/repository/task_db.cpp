#include "repository/task_db.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vdce::repo {

void TaskPerformanceDb::register_task(const TaskPerformanceRecord& record) {
  std::lock_guard lk(mu_);
  version_.fetch_add(1, std::memory_order_release);
  tasks_[record.task_name] = record;
}

TaskPerformanceRecord TaskPerformanceDb::get(
    const std::string& task_name) const {
  std::lock_guard lk(mu_);
  const auto it = tasks_.find(task_name);
  if (it == tasks_.end()) {
    throw common::NotFoundError("unknown task: " + task_name);
  }
  return it->second;
}

std::optional<TaskPerformanceRecord> TaskPerformanceDb::find(
    const std::string& task_name) const {
  std::lock_guard lk(mu_);
  const auto it = tasks_.find(task_name);
  if (it == tasks_.end()) return std::nullopt;
  return it->second;
}

bool TaskPerformanceDb::contains(const std::string& task_name) const {
  std::lock_guard lk(mu_);
  return tasks_.contains(task_name);
}

std::vector<std::string> TaskPerformanceDb::task_names() const {
  std::lock_guard lk(mu_);
  std::vector<std::string> out;
  out.reserve(tasks_.size());
  for (const auto& [name, _] : tasks_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t TaskPerformanceDb::size() const {
  std::lock_guard lk(mu_);
  return tasks_.size();
}

void TaskPerformanceDb::set_power_weight(const std::string& task_name,
                                         HostId host, double weight) {
  common::expects(weight > 0.0, "power weight must be positive");
  std::lock_guard lk(mu_);
  version_.fetch_add(1, std::memory_order_release);
  host_weights_[task_name][host] = weight;
}

void TaskPerformanceDb::set_arch_weight(const std::string& task_name,
                                        ArchType arch, double weight) {
  common::expects(weight > 0.0, "power weight must be positive");
  std::lock_guard lk(mu_);
  version_.fetch_add(1, std::memory_order_release);
  arch_weights_[task_name][static_cast<int>(arch)] = weight;
}

double TaskPerformanceDb::power_weight(const std::string& task_name,
                                       HostId host, ArchType arch) const {
  std::lock_guard lk(mu_);
  if (const auto ht = host_weights_.find(task_name);
      ht != host_weights_.end()) {
    if (const auto hw = ht->second.find(host); hw != ht->second.end()) {
      return hw->second;
    }
  }
  if (const auto at = arch_weights_.find(task_name);
      at != arch_weights_.end()) {
    if (const auto aw = at->second.find(static_cast<int>(arch));
        aw != at->second.end()) {
      return aw->second;
    }
  }
  return 1.0;
}

TaskWeightTable TaskPerformanceDb::weight_table(
    const std::string& task_name) const {
  std::lock_guard lk(mu_);
  TaskWeightTable out;
  if (const auto ht = host_weights_.find(task_name);
      ht != host_weights_.end()) {
    out.host_weights = ht->second;
  }
  if (const auto at = arch_weights_.find(task_name);
      at != arch_weights_.end()) {
    out.arch_weights = at->second;
  }
  return out;
}

void TaskPerformanceDb::record_measurement(const std::string& task_name,
                                           Duration elapsed_s) {
  std::lock_guard lk(mu_);
  const auto it = tasks_.find(task_name);
  if (it == tasks_.end()) {
    throw common::NotFoundError("unknown task: " + task_name);
  }
  auto& hist = it->second.measured_history;
  hist.push_back(elapsed_s);
  if (hist.size() > kHistoryCapacity) {
    const auto excess =
        static_cast<std::ptrdiff_t>(hist.size() - kHistoryCapacity);
    hist.erase(hist.begin(), hist.begin() + excess);
  }
}

std::vector<std::tuple<std::string, HostId, double>>
TaskPerformanceDb::all_host_weights() const {
  std::lock_guard lk(mu_);
  std::vector<std::tuple<std::string, HostId, double>> out;
  for (const auto& [task, weights] : host_weights_) {
    for (const auto& [host, w] : weights) out.emplace_back(task, host, w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::tuple<std::string, ArchType, double>>
TaskPerformanceDb::all_arch_weights() const {
  std::lock_guard lk(mu_);
  std::vector<std::tuple<std::string, ArchType, double>> out;
  for (const auto& [task, weights] : arch_weights_) {
    for (const auto& [arch, w] : weights) {
      out.emplace_back(task, static_cast<ArchType>(arch), w);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vdce::repo
