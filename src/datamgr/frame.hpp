// Pooled, reference-counted frame buffers: the zero-copy data path
// (design decision D13 in DESIGN.md).
//
// The Data Manager is the byte-moving heart of VDCE, yet before D13
// every frame was copied at every hop: producer -> send -> queue ->
// receive -> checkpoint -> socket.  A Frame is a single slab allocation
// that serves all of those consumers at once: the producer serializes
// into it exactly once, and every other party -- in-process queues, the
// checkpoint store, the TCP writev path -- holds a FrameView, a
// non-owning window that pins the slab via an atomic refcount.  The
// pool recycles a slab only after the last reference drops, so a
// captured checkpoint view stays bit-stable no matter how the pool
// churns underneath it.
//
// Ownership rules:
//   * Frame   -- owning, move-only, mutable.  Exactly one per slab.
//   * FrameView -- copyable, read-only.  Copying bumps the refcount;
//     no bytes move.  subview() carves zero-copy sub-ranges (envelope
//     bodies, PVM fragments).
//   * A slab returns to its size-class free list when the owning Frame
//     and every FrameView are gone.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace vdce::dm {

class FramePool;

namespace detail {

/// One pool slot: a reference-counted byte slab.  While `refs > 0` the
/// slot cannot be recycled, so every FrameView over it is bit-stable.
struct Slab {
  FramePool* pool = nullptr;
  std::size_t capacity = 0;
  std::size_t size = 0;  // committed bytes of the current frame
  std::atomic<std::uint32_t> refs{0};
  std::unique_ptr<std::byte[]> bytes;
};

void add_ref(Slab* slab) noexcept;
void release(Slab* slab) noexcept;

}  // namespace detail

/// Non-owning, read-only window onto a pooled frame: a span plus a
/// reference on the underlying pool slot.  Cheap to copy (one atomic
/// increment, zero bytes moved).
class FrameView {
 public:
  FrameView() = default;
  FrameView(const FrameView& other) noexcept;
  FrameView& operator=(const FrameView& other) noexcept;
  FrameView(FrameView&& other) noexcept;
  FrameView& operator=(FrameView&& other) noexcept;
  ~FrameView();

  [[nodiscard]] bool valid() const { return slab_ != nullptr; }
  [[nodiscard]] const std::byte* data() const;
  [[nodiscard]] std::size_t size() const { return length_; }
  [[nodiscard]] bool empty() const { return length_ == 0; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data(), length_};
  }
  [[nodiscard]] const std::byte* begin() const { return data(); }
  [[nodiscard]] const std::byte* end() const { return data() + length_; }

  /// A zero-copy sub-range sharing (and pinning) the same slab.
  /// Throws StateError if [offset, offset+length) exceeds this view.
  [[nodiscard]] FrameView subview(std::size_t offset,
                                  std::size_t length) const;

  /// Copies the viewed bytes out (compatibility with vector callers).
  [[nodiscard]] std::vector<std::byte> to_vector() const;

  /// Drops the reference, leaving an invalid view.
  void reset();

 private:
  friend class Frame;
  friend class FramePool;
  FrameView(detail::Slab* slab, std::size_t offset, std::size_t length);

  detail::Slab* slab_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

/// Owning, move-only, mutable handle to one pooled slab.  The producer
/// serializes into it once; view() shares it read-only from then on.
class Frame {
 public:
  Frame() = default;
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
  Frame(Frame&& other) noexcept;
  Frame& operator=(Frame&& other) noexcept;
  ~Frame();

  [[nodiscard]] bool valid() const { return slab_ != nullptr; }
  [[nodiscard]] std::byte* data();
  [[nodiscard]] const std::byte* data() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::span<std::byte> span() { return {data(), size()}; }

  /// Shrinks (or re-grows within capacity) the committed byte count.
  /// Throws StateError past capacity.
  void resize(std::size_t n);

  /// A read-only view of the committed bytes (refcount bump).
  [[nodiscard]] FrameView view() const;

  /// Releases the slab reference, leaving an invalid frame.
  void reset();

 private:
  friend class FramePool;
  explicit Frame(detail::Slab* slab) : slab_(slab) {}

  detail::Slab* slab_ = nullptr;
};

/// Point-in-time pool statistics (also exported as datamgr.pool.*
/// metrics through the global registry).
struct FramePoolStats {
  std::uint64_t slabs_allocated = 0;  ///< heap slabs ever created
  std::uint64_t reuse_hits = 0;       ///< allocations served from a free list
  std::uint64_t reuse_misses = 0;     ///< allocations that went to the heap
  std::uint64_t bytes_in_use = 0;     ///< pooled slab capacity out on loan
  std::uint64_t high_water_bytes = 0; ///< max bytes_in_use ever observed
  std::uint64_t free_slabs = 0;       ///< slabs parked on free lists
};

/// Slab allocator with power-of-two size classes and per-class free
/// lists.  Thread-safe.  The shared free lists sit behind one short
/// lock.  The global() pool also gives every thread a bounded cache of
/// free small slabs: its allocate/release fast path touches only that
/// thread's cache -- no lock, no shared atomic -- and the cache trades
/// slabs with the shared lists in batches (DESIGN.md D13).
class FramePool {
 public:
  /// Smallest slab handed out; sub-256B frames share this class.
  static constexpr std::size_t kMinSlabBytes = 256;
  /// Free slabs retained per size class; excess is heap-freed.
  static constexpr std::size_t kMaxFreePerClass = 8;
  /// Largest slab a thread cache holds; bigger frames (bulk vectors)
  /// always go through the shared free lists.
  static constexpr std::size_t kMaxCachedSlabBytes = 4 * 1024;
  /// Free slabs one thread cache holds per size class.
  static constexpr std::size_t kThreadCacheSlots = 8;
  /// Slabs a thread cache takes from, or gives back to, the shared free
  /// lists under one lock.
  static constexpr std::size_t kThreadCacheBatch = 4;

  FramePool();
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// A pooled frame with size() == size (capacity rounded up to the
  /// size class).  Contents are uninitialized.
  [[nodiscard]] Frame allocate(std::size_t size);

  /// Pool-allocates a frame holding a copy of `bytes` and returns a
  /// view of it (the transient owning Frame is dropped; the view keeps
  /// the slab alive).
  [[nodiscard]] FrameView copy_of(std::span<const std::byte> bytes);

  /// Exact whenever no thread is mid-operation.  Slabs in thread caches
  /// count as free.  high_water_bytes is exact for one thread; with
  /// several, a peak reached between two batch transfers can be off by
  /// up to what the thread caches hold.
  [[nodiscard]] FramePoolStats stats() const;

  /// Drops every parked free slab: the shared free lists and the
  /// calling thread's cache (test support).
  void trim();

  /// The process-wide pool, the only one with thread caches.
  /// Intentionally leaked: frames may be released from detached threads
  /// during process teardown, after static destructors would have run.
  [[nodiscard]] static FramePool& global();

 private:
  friend void detail::release(detail::Slab* slab) noexcept;
  struct ThreadCache;

  static constexpr std::size_t kCachedClasses =
      std::bit_width(kMaxCachedSlabBytes / kMinSlabBytes);

  [[nodiscard]] static std::size_t class_capacity(std::size_t size);
  [[nodiscard]] static std::size_t size_class(std::size_t capacity);
  /// The calling thread's cache when `cls` is cached by this pool;
  /// nullptr otherwise, and once the thread's cache is retired.
  [[nodiscard]] ThreadCache* cache_for(std::size_t cls);
  void register_cache(ThreadCache& cache);
  [[nodiscard]] detail::Slab* allocate_locked(std::size_t cls,
                                              std::size_t capacity,
                                              ThreadCache* cache);
  void recycle(detail::Slab* slab);
  /// Moves the cache's slabs of `cls` from index `from` up to the shared
  /// free list, appending what does not fit to `excess`.
  void give_back_locked(ThreadCache& cache, std::size_t cls,
                        std::size_t from, std::vector<detail::Slab*>& excess);
  /// Returns every cached slab and folds the cache's counters into the
  /// pool (thread exit).
  void retire(ThreadCache& cache);
  [[nodiscard]] std::int64_t in_use_locked() const;
  /// Exact in-use recount: raises the high-water mark and refreshes the
  /// gauges; given a cache, also refreshes its view of the other
  /// threads' use and publishes its hits to the registry.
  void sync_locked(ThreadCache* cache);

  bool thread_caches_ = false;  // set once, by global()
  mutable std::mutex mu_;
  // free_[c] parks slabs of capacity kMinSlabBytes << c.
  std::vector<std::vector<detail::Slab*>> free_;
  // Live thread caches, registered on a thread's first use of the pool.
  std::vector<ThreadCache*> caches_;
  // Bytes on loan through the shared path and from retired caches; a
  // live cache keeps its own count (either may be negative: a slab can
  // be taken on one thread and released on another).
  std::int64_t in_use_ = 0;
  FramePoolStats stats_;  // bytes_in_use unused: see in_use_
};

}  // namespace vdce::dm
