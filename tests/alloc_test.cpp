// Allocation wall for the steady-state stream frame path (DESIGN.md
// D13/D18): once a stream is running, a frame moves source -> resampler
// -> spectrum -> sink through pooled frames and reused kernel scratch,
// so its heap allocations per frame stay at (nearly) zero.
//
// This binary replaces the global allocation functions with counting
// ones, so it holds nothing but this wall: every other test runs on the
// library's own operator new.  The aligned overloads keep their
// library definitions and are not counted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "runtime/checkpoint.hpp"
#include "runtime/streaming.hpp"
#include "scheduler/allocation.hpp"
#include "tasklib/registry.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* checked_alloc(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace vdce::rt {
namespace {

using common::AppId;
using common::HostId;
using common::SiteId;
using common::TaskId;

/// The four-stage stream_spectrum pipeline: 85-sample source windows,
/// which the 3/2 resampler turns into unpadded 128-point spectra.
afg::FlowGraph make_spectrum_pipeline() {
  afg::FlowGraph g("stream_spectrum");
  afg::TaskProperties window;
  window.input_size = 85.0 / 64.0;
  const TaskId src = g.add_task("stream_window_source", "src", window);
  const TaskId rs = g.add_task("stream_resample", "rs");
  const TaskId fft = g.add_task("stream_window_fft", "fft");
  const TaskId sink = g.add_task("stream_sink", "sink");
  g.add_link(src, rs, 0.001);
  g.add_link(rs, fft, 0.001);
  g.add_link(fft, sink, 0.001);
  return g;
}

sched::AllocationTable one_host_per_stage(const afg::FlowGraph& g) {
  sched::AllocationTable table(g.name());
  std::uint32_t host = 1;
  for (const auto& node : g.tasks()) {
    sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {HostId(host++)};
    e.site = SiteId(0);
    table.add(e);
  }
  return table;
}

/// Heap allocations made while one stream of `frames` frames runs
/// (8-frame rings, a checkpoint every 64 sink frames, latency tracked).
std::uint64_t allocations_for(std::uint64_t frames, std::uint32_t app) {
  const afg::FlowGraph graph = make_spectrum_pipeline();
  const sched::AllocationTable alloc = one_host_per_stage(graph);
  StreamingConfig config;
  config.seed = 7;
  config.channel_capacity = 8;
  config.frames = frames;
  config.checkpoint_window = 64;
  config.track_latency = true;
  StreamingEngine engine(tasklib::builtin_registry(), config);
  CheckpointStore store;

  const std::uint64_t before = g_allocations.load();
  const StreamRunResult run =
      engine.execute(graph, alloc, nullptr, AppId(app), &store);
  const std::uint64_t after = g_allocations.load();

  EXPECT_EQ(run.source_frames, frames);
  for (const auto& [task, sink] : run.sinks) {
    EXPECT_EQ(sink.frames_emitted, frames);
  }
  return after - before;
}

TEST(AllocationWall, SteadyStateStreamFramesAllocateAtMostOnce) {
  (void)allocations_for(500, 1);  // warm the tables, plans and pool
  const std::uint64_t short_run = allocations_for(2000, 2);
  const std::uint64_t long_run = allocations_for(4000, 3);
  ASSERT_GE(long_run, short_run);
  // Per-run costs (threads, rings, thread caches) cancel; what is left
  // is the cost of the 2000 extra frames.
  const double per_frame =
      static_cast<double>(long_run - short_run) / 2000.0;
  RecordProperty("allocs_per_frame", std::to_string(per_frame));
  EXPECT_LE(per_frame, 1.0) << "2000-frame run: " << short_run
                            << " allocations, 4000-frame run: " << long_run;
}

}  // namespace
}  // namespace vdce::rt
