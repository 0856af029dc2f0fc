#include "viz/comparative.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace vdce::viz {

void ComparativeViz::add_run(const std::string& label,
                             const sim::SimResult& result) {
  Entry e;
  e.label = label;
  e.makespan_s = result.makespan_s;
  e.tasks = result.records.size();
  e.reschedules = result.reschedules;
  e.failures = result.failures_hit;
  for (const auto& r : result.records) e.total_exec_s += r.exec_s;
  runs_.push_back(std::move(e));
}

std::string ComparativeViz::best() const {
  if (runs_.empty()) return {};
  const auto it = std::min_element(
      runs_.begin(), runs_.end(),
      [](const Entry& a, const Entry& b) {
        return a.makespan_s < b.makespan_s;
      });
  return it->label;
}

std::string ComparativeViz::render() const {
  std::ostringstream os;
  if (runs_.empty()) return "(no runs)\n";

  std::size_t label_width = 5;
  double best_makespan = runs_.front().makespan_s;
  double worst = 0.0;
  for (const Entry& e : runs_) {
    label_width = std::max(label_width, e.label.size());
    best_makespan = std::min(best_makespan, e.makespan_s);
    worst = std::max(worst, e.makespan_s);
  }
  if (best_makespan <= 0.0) best_makespan = 1e-9;

  os << std::left << std::setw(static_cast<int>(label_width)) << "label"
     << "  makespan_s  total_exec_s  resched  vs_best\n";
  for (const Entry& e : runs_) {
    os << std::left << std::setw(static_cast<int>(label_width)) << e.label
       << "  " << std::fixed << std::setprecision(3) << std::setw(10)
       << e.makespan_s << "  " << std::setw(12) << e.total_exec_s << "  "
       << std::setw(7) << e.reschedules << "  " << std::setprecision(2)
       << e.makespan_s / best_makespan << "x\n";
  }

  os << "\n";
  constexpr std::size_t kBarWidth = 48;
  for (const Entry& e : runs_) {
    const auto len = static_cast<std::size_t>(
        e.makespan_s / std::max(worst, 1e-9) * kBarWidth);
    os << std::left << std::setw(static_cast<int>(label_width)) << e.label
       << " |" << std::string(std::max<std::size_t>(1, len), '#') << " "
       << std::fixed << std::setprecision(3) << e.makespan_s << "s\n";
  }
  return os.str();
}

std::string ComparativeViz::to_csv() const {
  std::ostringstream os;
  os << "label,makespan_s,total_exec_s,tasks,reschedules,failures\n";
  os << std::setprecision(9);
  for (const Entry& e : runs_) {
    os << e.label << ',' << e.makespan_s << ',' << e.total_exec_s << ','
       << e.tasks << ',' << e.reschedules << ',' << e.failures << '\n';
  }
  return os.str();
}

}  // namespace vdce::viz
