// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent, round, thread).  Spans are taken in
// the benchmark's own code around calls into a module's public functions;
// nothing inside src/ is instrumented.  They stay in memory while the run
// measures and are written out once, as a chrome://tracing JSON file, when
// it ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kNoParent =
    std::numeric_limits<std::size_t>::max();
inline constexpr std::size_t kCallingThread = kNoParent;

struct Span {
  const char* name = "";
  double start = 0.0;  // seconds since the trace's epoch
  double end = 0.0;
  std::size_t parent = kNoParent;
  std::int64_t round = -1;
  std::size_t thread = 0;  // dense per-process thread index
};

class SpanTrace {
 public:
  SpanTrace() : epoch_(std::chrono::steady_clock::now()) {}

  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  /// Seconds since this trace was created.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Seconds from this trace's epoch to `t`.
  double since_epoch(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Opens a span on the calling thread and returns its id.  Thread-safe.
  std::size_t begin(const char* name, std::int64_t round,
                    std::size_t parent = kNoParent);
  /// Closes span `id` now.
  void end(std::size_t id);
  /// Records an already-finished span on lane `thread` (default: the
  /// calling thread's).
  std::size_t add(const char* name, double start, double end,
                  std::int64_t round, std::size_t parent = kNoParent,
                  std::size_t thread = kCallingThread);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Writes the spans as chrome://tracing complete events; false on an I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: begin() on construction, end() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace& trace, const char* name, std::int64_t round,
             std::size_t parent = kNoParent)
      : trace_(trace), id_(trace.begin(name, round, parent)) {}
  ~ScopedSpan() { trace_.end(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return id_; }

 private:
  SpanTrace& trace_;
  std::size_t id_;
};

}  // namespace perfbench
