#include "datamgr/frame.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <type_traits>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace vdce::dm {

using common::StateError;

namespace detail {

void add_ref(Slab* slab) noexcept {
  slab->refs.fetch_add(1, std::memory_order_relaxed);
}

void release(Slab* slab) noexcept {
  // acq_rel: the last releaser must observe every write the other
  // holders made before dropping their references.
  if (slab->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    slab->pool->recycle(slab);
  }
}

}  // namespace detail

// -- FrameView -----------------------------------------------------------

FrameView::FrameView(detail::Slab* slab, std::size_t offset,
                     std::size_t length)
    : slab_(slab), offset_(offset), length_(length) {
  if (slab_ != nullptr) detail::add_ref(slab_);
}

FrameView::FrameView(const FrameView& other) noexcept
    : slab_(other.slab_), offset_(other.offset_), length_(other.length_) {
  if (slab_ != nullptr) detail::add_ref(slab_);
}

FrameView& FrameView::operator=(const FrameView& other) noexcept {
  if (this == &other) return *this;
  if (other.slab_ != nullptr) detail::add_ref(other.slab_);
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = other.slab_;
  offset_ = other.offset_;
  length_ = other.length_;
  return *this;
}

FrameView::FrameView(FrameView&& other) noexcept
    : slab_(other.slab_), offset_(other.offset_), length_(other.length_) {
  other.slab_ = nullptr;
  other.offset_ = 0;
  other.length_ = 0;
}

FrameView& FrameView::operator=(FrameView&& other) noexcept {
  if (this == &other) return *this;
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = other.slab_;
  offset_ = other.offset_;
  length_ = other.length_;
  other.slab_ = nullptr;
  other.offset_ = 0;
  other.length_ = 0;
  return *this;
}

FrameView::~FrameView() {
  if (slab_ != nullptr) detail::release(slab_);
}

const std::byte* FrameView::data() const {
  return slab_ != nullptr ? slab_->bytes.get() + offset_ : nullptr;
}

FrameView FrameView::subview(std::size_t offset, std::size_t length) const {
  if (offset > length_ || length > length_ - offset) {
    throw StateError("frame subview out of range");
  }
  return FrameView(slab_, offset_ + offset, length);
}

std::vector<std::byte> FrameView::to_vector() const {
  return {begin(), end()};
}

void FrameView::reset() {
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = nullptr;
  offset_ = 0;
  length_ = 0;
}

// -- Frame ---------------------------------------------------------------

Frame::Frame(Frame&& other) noexcept : slab_(other.slab_) {
  other.slab_ = nullptr;
}

Frame& Frame::operator=(Frame&& other) noexcept {
  if (this == &other) return *this;
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = other.slab_;
  other.slab_ = nullptr;
  return *this;
}

Frame::~Frame() {
  if (slab_ != nullptr) detail::release(slab_);
}

std::byte* Frame::data() {
  return slab_ != nullptr ? slab_->bytes.get() : nullptr;
}

const std::byte* Frame::data() const {
  return slab_ != nullptr ? slab_->bytes.get() : nullptr;
}

std::size_t Frame::size() const {
  return slab_ != nullptr ? slab_->size : 0;
}

std::size_t Frame::capacity() const {
  return slab_ != nullptr ? slab_->capacity : 0;
}

void Frame::resize(std::size_t n) {
  if (slab_ == nullptr) throw StateError("resize of an invalid frame");
  if (n > slab_->capacity) throw StateError("frame resize past capacity");
  slab_->size = n;
}

FrameView Frame::view() const {
  if (slab_ == nullptr) return {};
  return FrameView(slab_, 0, slab_->size);
}

void Frame::reset() {
  if (slab_ != nullptr) detail::release(slab_);
  slab_ = nullptr;
}

// -- FramePool -----------------------------------------------------------

namespace {

struct PoolInstruments {
  common::Counter& slabs_allocated;
  common::Counter& reuse_hits;
  common::Counter& reuse_misses;
  common::Gauge& bytes_in_use;
  common::Gauge& high_water;
};

PoolInstruments resolve_instruments() {
  auto& reg = common::MetricsRegistry::global();
  return PoolInstruments{reg.counter("datamgr.pool.slabs_allocated"),
                         reg.counter("datamgr.pool.reuse_hits"),
                         reg.counter("datamgr.pool.reuse_misses"),
                         reg.gauge("datamgr.pool.bytes_in_use"),
                         reg.gauge("datamgr.pool.high_water_bytes")};
}

// Instruments for the global pool.  The global pool is leaked, so its
// releases may run during process teardown -- but only from joined
// threads (the event loop joins at exit, DataManager threads join in
// run()), which all finish before static destructors fire.
PoolInstruments& instruments() {
  static PoolInstruments inst = resolve_instruments();
  return inst;
}

}  // namespace

// One thread's cache of free slabs for the global pool.  Only the owning
// thread touches it, taking the pool lock only to trade slabs with the
// shared lists.  The counters are atomics that the owner alone writes
// (a plain load and store, no read-modify-write), so that stats() can
// sum them under the lock from any thread.
struct FramePool::ThreadCache {
  ThreadCache() { FramePool::global().register_cache(*this); }
  ~ThreadCache();
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// Pops a cached slab of `cls`, or nullptr when there is none.
  detail::Slab* take(std::size_t cls, std::size_t capacity) {
    if (count[cls] == 0) return nullptr;
    detail::Slab* slab = slabs[cls][--count[cls]];
    bump(hits, 1);
    bump(free_slabs, -1);
    loan(static_cast<std::int64_t>(capacity));
    return slab;
  }

  void loan(std::int64_t bytes) {
    const std::int64_t mine = in_use.load(std::memory_order_relaxed) + bytes;
    in_use.store(mine, std::memory_order_relaxed);
    if (others + mine > peak.load(std::memory_order_relaxed)) {
      peak.store(others + mine, std::memory_order_relaxed);
    }
  }

  template <typename T>
  static void bump(std::atomic<T>& counter, std::type_identity_t<T> delta) {
    counter.store(counter.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
  }

  std::array<std::array<detail::Slab*, kThreadCacheSlots>, kCachedClasses>
      slabs{};
  std::array<std::size_t, kCachedClasses> count{};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> free_slabs{0};
  // Net bytes this thread took minus released (may be negative).
  std::atomic<std::int64_t> in_use{0};
  // Highest pool-wide in-use this thread has seen: its own count plus
  // `others`, the rest of the pool's as of its last locked recount.
  std::atomic<std::int64_t> peak{0};
  std::int64_t others = 0;
  std::uint64_t hits_published = 0;  // already added to the instrument
};

namespace {
// Set once a thread's cache is destroyed: frames that thread releases
// later (from other thread_local destructors) take the shared path.
constinit thread_local bool t_cache_retired = false;
}  // namespace

FramePool::ThreadCache::~ThreadCache() {
  t_cache_retired = true;
  FramePool::global().retire(*this);
}

FramePool::FramePool() {
  instruments();  // force registry + instrument construction first
}

FramePool::~FramePool() { trim(); }

std::size_t FramePool::class_capacity(std::size_t size) {
  return std::bit_ceil(std::max(size, kMinSlabBytes));
}

std::size_t FramePool::size_class(std::size_t capacity) {
  return static_cast<std::size_t>(std::countr_zero(capacity)) -
         static_cast<std::size_t>(std::countr_zero(kMinSlabBytes));
}

FramePool::ThreadCache* FramePool::cache_for(std::size_t cls) {
  if (!thread_caches_ || cls >= kCachedClasses || t_cache_retired) {
    return nullptr;
  }
  thread_local ThreadCache cache;
  return &cache;
}

void FramePool::register_cache(ThreadCache& cache) {
  std::lock_guard lock(mu_);
  caches_.push_back(&cache);
  sync_locked(&cache);
}

std::int64_t FramePool::in_use_locked() const {
  std::int64_t total = in_use_;
  for (const ThreadCache* c : caches_) {
    total += c->in_use.load(std::memory_order_relaxed);
  }
  return total;
}

void FramePool::sync_locked(ThreadCache* cache) {
  // Clamped: a recount racing another thread's fast path can see a
  // release before the matching take.
  const std::int64_t total = std::max<std::int64_t>(in_use_locked(), 0);
  const auto bytes = static_cast<std::uint64_t>(total);
  if (bytes > stats_.high_water_bytes) {
    stats_.high_water_bytes = bytes;
    instruments().high_water.set(static_cast<double>(bytes));
  }
  instruments().bytes_in_use.set(static_cast<double>(bytes));
  if (cache != nullptr) {
    cache->others = total - cache->in_use.load(std::memory_order_relaxed);
    const std::uint64_t hits = cache->hits.load(std::memory_order_relaxed);
    instruments().reuse_hits.add(hits - cache->hits_published);
    cache->hits_published = hits;
  }
}

detail::Slab* FramePool::allocate_locked(std::size_t cls, std::size_t capacity,
                                         ThreadCache* cache) {
  if (free_.size() <= cls) free_.resize(cls + 1);
  auto& shared = free_[cls];
  detail::Slab* slab = nullptr;
  if (cache != nullptr) {
    // Refill a batch; the first slab is this allocation.
    while (!shared.empty() && cache->count[cls] < kThreadCacheBatch) {
      cache->slabs[cls][cache->count[cls]++] = shared.back();
      shared.pop_back();
      --stats_.free_slabs;
      ThreadCache::bump(cache->free_slabs, 1);
    }
    slab = cache->take(cls, capacity);
    if (slab == nullptr) cache->loan(static_cast<std::int64_t>(capacity));
  } else {
    if (!shared.empty()) {
      slab = shared.back();
      shared.pop_back();
      --stats_.free_slabs;
      ++stats_.reuse_hits;
    }
    in_use_ += static_cast<std::int64_t>(capacity);
  }
  if (slab == nullptr) {
    ++stats_.reuse_misses;
    ++stats_.slabs_allocated;
  }
  sync_locked(cache);
  return slab;
}

Frame FramePool::allocate(std::size_t size) {
  const std::size_t capacity = class_capacity(size);
  const std::size_t cls = size_class(capacity);
  ThreadCache* cache = cache_for(cls);

  detail::Slab* slab = cache != nullptr ? cache->take(cls, capacity) : nullptr;
  if (slab == nullptr) {
    {
      std::lock_guard lock(mu_);
      slab = allocate_locked(cls, capacity, cache);
    }
    if (slab == nullptr) {
      instruments().slabs_allocated.add();
      instruments().reuse_misses.add();
      slab = new detail::Slab;
      slab->pool = this;
      slab->capacity = capacity;
      slab->bytes = std::make_unique<std::byte[]>(capacity);
    } else if (cache == nullptr) {
      instruments().reuse_hits.add();
    }
  }
  slab->size = size;
  slab->refs.store(1, std::memory_order_relaxed);
  return Frame(slab);
}

FrameView FramePool::copy_of(std::span<const std::byte> bytes) {
  Frame frame = allocate(bytes.size());
  if (!bytes.empty()) std::memcpy(frame.data(), bytes.data(), bytes.size());
  return frame.view();
}

void FramePool::give_back_locked(ThreadCache& cache, std::size_t cls,
                                 std::size_t from,
                                 std::vector<detail::Slab*>& excess) {
  if (free_.size() <= cls) free_.resize(cls + 1);
  for (std::size_t i = from; i < cache.count[cls]; ++i) {
    detail::Slab* slab = cache.slabs[cls][i];
    if (free_[cls].size() < kMaxFreePerClass) {
      free_[cls].push_back(slab);
      ++stats_.free_slabs;
    } else {
      excess.push_back(slab);
    }
    ThreadCache::bump(cache.free_slabs, -1);
  }
  cache.count[cls] = from;
}

void FramePool::recycle(detail::Slab* slab) {
  const std::size_t cls = size_class(slab->capacity);
  const auto capacity = static_cast<std::int64_t>(slab->capacity);
  ThreadCache* cache = cache_for(cls);
  if (cache != nullptr) {
    cache->loan(-capacity);
    if (cache->count[cls] < kThreadCacheSlots) {
      cache->slabs[cls][cache->count[cls]++] = slab;
      ThreadCache::bump(cache->free_slabs, 1);
      return;
    }
    // Full: hand the top batch back to the shared list, keep this slab.
    std::vector<detail::Slab*> excess;
    {
      std::lock_guard lock(mu_);
      give_back_locked(*cache, cls, kThreadCacheSlots - kThreadCacheBatch,
                       excess);
      cache->slabs[cls][cache->count[cls]++] = slab;
      ThreadCache::bump(cache->free_slabs, 1);
      sync_locked(cache);
    }
    for (detail::Slab* s : excess) delete s;
    return;
  }
  bool park = false;
  {
    std::lock_guard lock(mu_);
    in_use_ -= capacity;
    if (free_.size() <= cls) free_.resize(cls + 1);
    if (free_[cls].size() < kMaxFreePerClass) {
      free_[cls].push_back(slab);
      ++stats_.free_slabs;
      park = true;
    }
    sync_locked(nullptr);
  }
  if (!park) delete slab;
}

void FramePool::retire(ThreadCache& cache) {
  std::vector<detail::Slab*> excess;
  {
    std::lock_guard lock(mu_);
    for (std::size_t cls = 0; cls < kCachedClasses; ++cls) {
      give_back_locked(cache, cls, 0, excess);
    }
    sync_locked(&cache);
    stats_.reuse_hits += cache.hits.load(std::memory_order_relaxed);
    in_use_ += cache.in_use.load(std::memory_order_relaxed);
    stats_.high_water_bytes =
        std::max(stats_.high_water_bytes,
                 static_cast<std::uint64_t>(
                     cache.peak.load(std::memory_order_relaxed)));
    std::erase(caches_, &cache);
  }
  for (detail::Slab* s : excess) delete s;
}

FramePoolStats FramePool::stats() const {
  std::lock_guard lock(mu_);
  FramePoolStats out = stats_;
  const std::int64_t in_use = std::max<std::int64_t>(in_use_locked(), 0);
  out.bytes_in_use = static_cast<std::uint64_t>(in_use);
  out.high_water_bytes = std::max(out.high_water_bytes, out.bytes_in_use);
  for (const ThreadCache* c : caches_) {
    out.reuse_hits += c->hits.load(std::memory_order_relaxed);
    out.free_slabs += c->free_slabs.load(std::memory_order_relaxed);
    out.high_water_bytes =
        std::max(out.high_water_bytes,
                 static_cast<std::uint64_t>(
                     c->peak.load(std::memory_order_relaxed)));
  }
  return out;
}

void FramePool::trim() {
  ThreadCache* cache = cache_for(0);
  std::vector<detail::Slab*> doomed;
  {
    std::lock_guard lock(mu_);
    if (cache != nullptr) {
      for (std::size_t cls = 0; cls < kCachedClasses; ++cls) {
        give_back_locked(*cache, cls, 0, doomed);
      }
    }
    for (auto& cls : free_) {
      doomed.insert(doomed.end(), cls.begin(), cls.end());
      cls.clear();
    }
    stats_.free_slabs = 0;
  }
  for (detail::Slab* slab : doomed) delete slab;
}

FramePool& FramePool::global() {
  // Leaked on purpose: see the header.  The registry (and this pool's
  // instruments) are forced into existence first, so their function-
  // local statics outlive every atexit-joined user of the pool.
  static FramePool* pool = [] {
    auto* p = new FramePool;
    p->thread_caches_ = true;
    return p;
  }();
  return *pool;
}

}  // namespace vdce::dm
