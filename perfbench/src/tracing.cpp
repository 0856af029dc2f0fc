#include "tracing.hpp"

#include <atomic>
#include <fstream>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_generation{1};

/// The calling thread's buffer in the log of generation `generation`
/// (a generation never repeats, so a stale cache entry cannot alias a
/// new log allocated at the same address).
struct LocalCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSubmit:         return "submit";
    case SpanKind::kWait:           return "wait";
    case SpanKind::kHostSelection:  return "host_selection";
    case SpanKind::kReselection:    return "host_reselection";
    case SpanKind::kDirectoryQuery: return "directory_query";
    case SpanKind::kTask:           return "task";
    case SpanKind::kSinkFrame:      return "sink_frame";
  }
  return "?";
}

SpanLog::SpanLog() : generation_(g_next_generation.fetch_add(1)) {}

SpanLog::ThreadBuffer& SpanLog::local() {
  if (t_cache.generation == generation_) {
    return *static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  auto buffer = std::make_unique<ThreadBuffer>();
  // Engine machine threads live for one task, so buffers start small.
  buffer->spans.reserve(16);
  ThreadBuffer* raw = buffer.get();
  {
    const std::lock_guard lock(mu_);
    raw->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buffer));
  }
  t_cache = LocalCache{generation_, raw};
  return *raw;
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

std::uint32_t SpanLog::task_tag(const std::string& name) {
  for (std::size_t i = 0; i < task_names_.size(); ++i) {
    if (task_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  task_names_.push_back(name);
  return static_cast<std::uint32_t>(task_names_.size() - 1);
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "kind,thread,tag,request,start_ns,end_ns\n";
  for (const Span& s : spans()) {
    out << to_string(s.kind) << ',' << s.thread << ',';
    if (s.kind == SpanKind::kTask && s.tag < task_names_.size()) {
      out << task_names_[s.tag];
    } else {
      out << s.tag;
    }
    out << ',' << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, SpanKind kind, std::uint32_t tag,
                       std::uint64_t request) {
  if (log == nullptr) return;
  buffer_ = &log->local();
  saved_request_ = buffer_->request;
  if (request != 0) buffer_->request = request;
  index_ = buffer_->spans.size();
  buffer_->spans.push_back(
      Span{kind, buffer_->thread, tag, buffer_->request, now_ns(), 0});
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = now_ns();
  buffer_->request = saved_request_;
}

void record_instant(SpanLog* log, SpanKind kind) {
  if (log == nullptr) return;
  SpanLog::ThreadBuffer& buffer = log->local();
  const std::int64_t t = now_ns();
  buffer.spans.push_back(Span{kind, buffer.thread, 0, buffer.request, t, t});
}

// -- TimingDirectory ---------------------------------------------------

using vdce::common::Duration;
using vdce::common::HostId;
using vdce::common::SiteId;

std::vector<SiteId> TimingDirectory::sites() const {
  const ScopedSpan span(log_, SpanKind::kDirectoryQuery);
  return inner_->sites();
}

Duration TimingDirectory::site_distance(SiteId a, SiteId b) const {
  const ScopedSpan span(log_, SpanKind::kDirectoryQuery);
  return inner_->site_distance(a, b);
}

Duration TimingDirectory::transfer_time(SiteId a, SiteId b, double mb) const {
  const ScopedSpan span(log_, SpanKind::kDirectoryQuery);
  return inner_->transfer_time(a, b, mb);
}

vdce::sched::HostSelectionMap TimingDirectory::host_selection(
    SiteId site, const vdce::afg::FlowGraph& graph, std::size_t threads) {
  const ScopedSpan span(log_, SpanKind::kHostSelection, site.value());
  return inner_->host_selection(site, graph, threads);
}

vdce::sched::HostSelection TimingDirectory::host_reselection(
    SiteId site, const vdce::afg::TaskNode& node,
    const std::vector<HostId>& excluded) {
  const ScopedSpan span(log_, SpanKind::kReselection, site.value());
  return inner_->host_reselection(site, node, excluded);
}

Duration TimingDirectory::base_time(const std::string& library_task) const {
  const ScopedSpan span(log_, SpanKind::kDirectoryQuery);
  return inner_->base_time(library_task);
}

Duration TimingDirectory::host_transfer_time(HostId from, HostId to,
                                             double mb) const {
  const ScopedSpan span(log_, SpanKind::kDirectoryQuery);
  return inner_->host_transfer_time(from, to, mb);
}

// -- timed registry ----------------------------------------------------

vdce::tasklib::TaskRegistry timed_registry(
    const vdce::tasklib::TaskRegistry& base, SpanLog& log) {
  vdce::tasklib::TaskRegistry registry;
  for (const std::string& name : base.all_tasks()) {
    vdce::tasklib::LibraryEntry entry = base.get(name);
    entry.fn = [inner = entry.fn, log = &log, tag = log.task_tag(name)](
                   const std::vector<vdce::tasklib::Payload>& in,
                   const vdce::tasklib::TaskContext& ctx) {
      const ScopedSpan span(log, SpanKind::kTask, tag);
      return inner(in, ctx);
    };
    registry.add(std::move(entry));
  }
  return registry;
}

}  // namespace perfbench
