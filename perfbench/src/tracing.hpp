// Spans recorded from outside the program: around the public seams the
// benchmark calls through (submit/wait, the SiteDirectory the service
// is given, the TaskRegistry entries it executes).
//
// Spans stay in memory, one buffer per thread, and are written out when
// the run ends.  A null SpanLog turns every ScopedSpan into a no-op, so
// the same client loop serves the untraced and the traced phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "scheduler/directory.hpp"
#include "tasklib/registry.hpp"

namespace perfbench {

/// What a span wraps.
enum class SpanKind : std::uint8_t {
  kSubmit,         // AppSubmissionService::submit, client side
  kWait,           // AppSubmissionService::wait, client side
  kHostSelection,  // SiteDirectory::host_selection (the site multicast)
  kReselection,    // SiteDirectory::host_reselection
  kDirectoryQuery, // every other SiteDirectory call
  kTask,           // one TaskRegistry entry call
  kSinkFrame,      // StreamingConfig::on_sink_frame (instant)
};

[[nodiscard]] const char* to_string(SpanKind kind);

/// One recorded span.  `tag` is the site for directory spans and the
/// task-name index (SpanLog::task_names) for task spans.
struct Span {
  SpanKind kind = SpanKind::kSubmit;
  std::uint32_t thread = 0;
  std::uint32_t tag = 0;
  /// Request (app) the span belongs to; children inherit it from the
  /// enclosing span on their thread.  0 = not known.
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Nanoseconds on the steady clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span store with one append-only buffer per thread.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Every span recorded so far, buffers concatenated.  Call after the
  /// recording threads have finished.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Index of a task name for kTask span tags (registered up front).
  std::uint32_t task_tag(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& task_names() const {
    return task_names_;
  }

  /// Writes one CSV line per span.  Returns false when the file cannot
  /// be written.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  friend class ScopedSpan;
  friend void record_instant(SpanLog* log, SpanKind kind);
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::uint64_t request = 0;  // of the innermost open span
    std::vector<Span> spans;
  };
  /// This thread's buffer, registered on first use.
  [[nodiscard]] ThreadBuffer& local();

  const std::uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::string> task_names_;
};

/// Records one span on the calling thread for its lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind, std::uint32_t tag = 0,
             std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog::ThreadBuffer* buffer_ = nullptr;
  std::size_t index_ = 0;
  std::uint64_t saved_request_ = 0;
};

/// Records a zero-length span (an event) on the calling thread.
void record_instant(SpanLog* log, SpanKind kind);

/// SiteDirectory that times every call into the directory it wraps.
class TimingDirectory final : public vdce::sched::SiteDirectory {
 public:
  /// `inner` and `log` must outlive the wrapper.
  TimingDirectory(vdce::sched::SiteDirectory& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  [[nodiscard]] std::vector<vdce::common::SiteId> sites() const override;
  [[nodiscard]] vdce::common::Duration site_distance(
      vdce::common::SiteId a, vdce::common::SiteId b) const override;
  [[nodiscard]] vdce::common::Duration transfer_time(
      vdce::common::SiteId a, vdce::common::SiteId b,
      double mb) const override;
  [[nodiscard]] vdce::sched::HostSelectionMap host_selection(
      vdce::common::SiteId site, const vdce::afg::FlowGraph& graph,
      std::size_t threads = 1) override;
  [[nodiscard]] vdce::sched::HostSelection host_reselection(
      vdce::common::SiteId site, const vdce::afg::TaskNode& node,
      const std::vector<vdce::common::HostId>& excluded) override;
  [[nodiscard]] vdce::common::Duration base_time(
      const std::string& library_task) const override;
  [[nodiscard]] vdce::common::Duration host_transfer_time(
      vdce::common::HostId from, vdce::common::HostId to,
      double mb) const override;

 private:
  vdce::sched::SiteDirectory* inner_;
  SpanLog* log_;
};

/// A copy of `base` whose entries record a kTask span per call.
[[nodiscard]] vdce::tasklib::TaskRegistry timed_registry(
    const vdce::tasklib::TaskRegistry& base, SpanLog& log);

}  // namespace perfbench
