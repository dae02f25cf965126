#pragma once
/// \file trace.hpp
/// \brief Structured tracing: nestable RAII spans recorded into lock-cheap
/// per-thread ring buffers, exportable as Chrome-trace JSON.
///
/// The paper's §5 outlook asks for profiling NAS resource usage on real
/// hardware; HW-NAS-Bench argues hardware-aware NAS needs *measured*,
/// inspectable cost data. This layer answers "where did the search / the
/// serving stack actually spend its time" with a timeline; the sibling
/// metrics registry (metrics.hpp) holds the aggregate totals.
///
/// Design constraints, in priority order:
///  1. **Zero overhead when disabled.** `Span` construction while tracing is
///     off is a single relaxed atomic load — no clock read, no allocation,
///     no locking. Production binaries keep their instrumentation compiled
///     in and pay nothing until someone flips the runtime switch.
///  2. **Lock-cheap when enabled.** Each thread writes completed spans into
///     its own fixed-capacity ring buffer guarded by a per-thread mutex that
///     is uncontended except while a snapshot is being taken. Nothing on the
///     record path allocates: span names/categories/attributes live in
///     fixed-size inline char arrays.
///  3. **Bounded memory.** A full ring overwrites its oldest event
///     (keep-latest drop policy) and counts the drop, so a long search can
///     trace forever without growing without bound.
///
/// Spans nest by construction order within a thread (RAII guarantees LIFO),
/// which is exactly the well-nestedness Chrome "complete" (ph:"X") events
/// require. See OBSERVABILITY.md for the span taxonomy and export workflow.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace dcnas::obs {

namespace detail {
/// Process-wide tracing switch. Inline so Span's disabled-path check
/// compiles to one relaxed load with no function call.
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

/// One completed span. Plain data with inline storage only, so ring-buffer
/// writes are memcpy-cheap and never allocate.
struct SpanEvent {
  static constexpr std::size_t kNameCapacity = 48;
  static constexpr std::size_t kCategoryCapacity = 16;
  static constexpr std::size_t kArgsCapacity = 64;

  char name[kNameCapacity] = {0};          ///< e.g. "nas.trial.evaluate"
  char category[kCategoryCapacity] = {0};  ///< e.g. "nas" (taxonomy in docs)
  char args[kArgsCapacity] = {0};          ///< "key=value,key=value", may be ""
  std::uint64_t start_ns = 0;     ///< steady-clock ns since process t0
  std::uint64_t duration_ns = 0;  ///< span wall time
  std::uint32_t thread_id = 0;    ///< dense recorder-assigned id, from 1
  std::uint32_t depth = 0;        ///< nesting depth within the thread, from 0
};

struct TraceOptions {
  /// Completed spans retained per thread; older spans are overwritten
  /// (and counted as dropped) once a thread's ring is full.
  std::size_t ring_capacity = 16384;
};

/// Process-wide span sink. All methods are thread-safe.
class TraceRecorder {
 public:
  static TraceRecorder& global();

  /// Turns tracing on, discarding previously recorded events. Spans already
  /// alive keep their pre-enable disarmed/armed state.
  void enable(const TraceOptions& options = {});

  /// Turns tracing off. Recorded events are kept and stay exportable until
  /// clear() or the next enable().
  void disable();

  static bool enabled() {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// All recorded events across threads, sorted by (start_ns, longer spans
  /// first) so parents precede their children.
  std::vector<SpanEvent> snapshot() const;

  /// Events overwritten by the keep-latest drop policy since enable/clear.
  std::uint64_t dropped_count() const;

  /// Threads that have recorded at least one event since enable/clear.
  std::size_t thread_count() const;

  /// Discards all recorded events and drop counts (tracing state unchanged).
  void clear();

  const TraceOptions& options() const { return options_; }

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  friend class Span;
  struct ThreadBuffer;

  TraceRecorder() = default;
  /// Appends one completed event to the calling thread's ring buffer.
  void commit(const SpanEvent& event);
  std::shared_ptr<ThreadBuffer> local_buffer();

  mutable std::mutex registry_mu_;  ///< guards buffers_ / options_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  TraceOptions options_;
  std::uint32_t next_thread_id_ = 1;
};

/// RAII tracing span. Construction while tracing is disabled is free (one
/// relaxed atomic load); while enabled it stamps the start time and the
/// destructor commits the completed event to the per-thread ring.
///
/// \p category must be a string with static storage duration (a literal);
/// \p name is copied into inline storage (truncated to
/// SpanEvent::kNameCapacity - 1 chars).
class Span {
 public:
  Span(const char* category, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is recording. Use to gate building attribute
  /// values that would otherwise cost allocations:
  ///   if (span.armed()) span.arg("config", cfg.lattice_key());
  bool armed() const { return armed_; }

  /// Attaches "key=value" to the span (comma-separated, truncated once the
  /// inline args buffer is full). No-op when not armed.
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, std::int64_t value);

 private:
  bool armed_ = false;
  SpanEvent event_;
};

}  // namespace dcnas::obs

// Token-pasting helpers so two DCNAS_TRACE_SPAN on different lines coexist.
#define DCNAS_OBS_CONCAT_IMPL(a, b) a##b
#define DCNAS_OBS_CONCAT(a, b) DCNAS_OBS_CONCAT_IMPL(a, b)

/// Declares an anonymous scope-long span: DCNAS_TRACE_SPAN("nn", "nn.epoch");
#define DCNAS_TRACE_SPAN(category, name) \
  ::dcnas::obs::Span DCNAS_OBS_CONCAT(dcnas_trace_span_, __LINE__)((category), (name))
