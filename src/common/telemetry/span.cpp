#include "common/telemetry/span.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace glimpse::telemetry {

namespace detail {
// Defined in trace_context.cpp: mutable access to the thread's ambient
// context so a span can splice its own id in as the parent for children.
TraceContext& active_trace_context();
}  // namespace detail

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_dropped{0};

/// Tracing defaults on when GLIMPSE_TRACE names an export path (the
/// exporter layer reads the same variable for the destination).
bool tracing_env_default() {
  const char* env = std::getenv("GLIMPSE_TRACE");
  return env != nullptr && *env != '\0';
}

struct TracingInit {
  TracingInit() { g_tracing.store(tracing_env_default(), std::memory_order_relaxed); }
};
TracingInit g_tracing_init;

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t unix_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Monotonic + wall-clock bases pinned together so exported timestamps
/// start near zero and cross-process stitching can realign them.
struct TimeBases {
  std::uint64_t steady_ns;
  std::uint64_t unix_ns;
};

const TimeBases& bases() {
  static const TimeBases b{clock_ns(), unix_clock_ns()};
  return b;
}

/// Owned by one thread for appends. When the owner exits its tag (== slot
/// index) is recycled and the next thread to claim it adopts this buffer,
/// so the registry stays bounded by the high-water mark of live threads;
/// undrained events from the previous owner still reach the flush.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  ///< live span nesting depth of the owner thread
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> slots;  // index == thread tag
  std::vector<std::uint32_t> free_tags;              // recycled tags, LIFO
  std::uint32_t next_tag = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable from thread exits
  return *r;
}

std::uint32_t acquire_tag() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.free_tags.empty()) {
    std::uint32_t tag = r.free_tags.back();
    r.free_tags.pop_back();
    return tag;
  }
  return r.next_tag++;
}

void release_tag(std::uint32_t tag) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  // All of the exiting thread's spans are closed; reset so the adopting
  // thread starts at depth 0 even if a tracing toggle raced an unwind.
  if (tag < r.slots.size() && r.slots[tag]) r.slots[tag]->depth = 0;
  r.free_tags.push_back(tag);
}

/// Holds the tag for the thread's lifetime; the destructor returns it to
/// the free list through the registry mutex, which also orders this
/// thread's final buffer appends before any adopter's first append.
struct TagHolder {
  std::uint32_t tag;
  TagHolder() : tag(acquire_tag()) {}
  ~TagHolder() { release_tag(tag); }
};

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    // thread_tag() first: its TagHolder finishes constructing before this
    // initializer completes, so it is destroyed after `buf` — the tag is
    // only recycled once this thread can no longer append.
    const std::uint32_t tag = thread_tag();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.slots.size() <= tag) r.slots.resize(tag + 1);
    if (!r.slots[tag]) {
      r.slots[tag] = std::make_shared<ThreadBuffer>();
      r.slots[tag]->tid = tag;
    }
    r.slots[tag]->depth = 0;
    return r.slots[tag];
  }();
  return *buf;
}

}  // namespace

bool tracing_enabled() { return g_tracing.load(std::memory_order_relaxed); }

void set_tracing_enabled(bool on) {
  bases();  // pin the time bases before the first span
  g_tracing.store(on, std::memory_order_relaxed);
}

std::uint32_t thread_tag() {
  thread_local TagHolder holder;
  return holder.tag;
}

std::uint64_t now_ns() {
  // Pin the bases before reading the clock: with unspecified operand order,
  // `clock_ns() - bases().steady_ns` could read the clock first and then pin
  // a (later) base, wrapping the very first timestamp below zero.
  const std::uint64_t base = bases().steady_ns;
  return clock_ns() - base;
}

std::uint64_t base_unix_ns() { return bases().unix_ns; }

void Span::begin(const char* name) {
  ThreadBuffer& buf = local_buffer();
  name_ = name;
  depth_ = buf.depth++;
  TraceContext& ambient = detail::active_trace_context();
  if ((ambient.trace_id_hi | ambient.trace_id_lo) != 0) {
    // Join the ambient trace. span_id == 0 means "trace root pending": this
    // span becomes the root (parent 0) rather than pointing at a phantom
    // parent that no process ever records.
    trace_hi_ = ambient.trace_id_hi;
    trace_lo_ = ambient.trace_id_lo;
    parent_span_id_ = ambient.span_id;
    span_id_ = next_span_id();
    prev_ambient_span_ = ambient.span_id;
    ambient.span_id = span_id_;  // children nest under this span
  }
  start_ns_ = now_ns();  // last: exclude buffer setup from the interval
}

void Span::end() {
  const std::uint64_t end_ns = now_ns();
  if (span_id_ != 0) {
    TraceContext& ambient = detail::active_trace_context();
    // Restore only if still ours: a ScopedTraceContext swap inside the
    // span's scope must not be clobbered by our unwind.
    if (ambient.span_id == span_id_) ambient.span_id = prev_ambient_span_;
  }
  ThreadBuffer& buf = local_buffer();
  buf.depth = depth_;  // robust even if an enabled/disabled toggle raced
  if (buf.events.size() >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name_;
  e.tid = buf.tid;
  e.depth = depth_;
  e.start_ns = start_ns_;
  e.dur_ns = end_ns - start_ns_;
  e.trace_id_hi = trace_hi_;
  e.trace_id_lo = trace_lo_;
  e.span_id = span_id_;
  e.parent_span_id = parent_span_id_;
  e.job_id = job_id_;
  e.round = round_;
  e.config_fp = config_fp_;
  e.note = note_;
  buf.events.push_back(e);
}

void record_span_event(const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns, const TraceContext& ctx,
                       std::uint64_t parent_span_id, const EventArgs& args) {
  if (!tracing_enabled()) return;
  ThreadBuffer& buf = local_buffer();
  if (buf.events.size() >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.tid = buf.tid;
  e.depth = buf.depth;
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.trace_id_hi = ctx.trace_id_hi;
  e.trace_id_lo = ctx.trace_id_lo;
  e.span_id = ctx.span_id;
  e.parent_span_id = parent_span_id;
  e.job_id = args.job_id;
  e.round = args.round;
  e.config_fp = args.config_fp;
  e.note = args.note;
  buf.events.push_back(e);
}

std::vector<TraceEvent> snapshot_events() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const auto& b : r.slots)
    if (b) total += b->events.size();
  out.reserve(total);
  for (const auto& b : r.slots)
    if (b) out.insert(out.end(), b->events.begin(), b->events.end());
  return out;
}

std::vector<TraceEvent> drain_events() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<TraceEvent> out;
  for (const auto& b : r.slots) {
    if (!b) continue;
    out.insert(out.end(), b->events.begin(), b->events.end());
    b->events.clear();
  }
  g_dropped.store(0, std::memory_order_relaxed);
  return out;
}

void clear_events() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.slots)
    if (b) b->events.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t num_dropped_events() {
  return g_dropped.load(std::memory_order_relaxed);
}

std::size_t num_thread_buffers() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::size_t n = 0;
  for (const auto& b : r.slots)
    if (b) ++n;
  return n;
}

std::size_t num_live_thread_tags() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.next_tag - r.free_tags.size();
}

}  // namespace glimpse::telemetry
