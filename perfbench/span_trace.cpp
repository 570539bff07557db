#include "span_trace.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::size_t SpanTrace::begin(const char* name, std::int64_t round,
                             std::size_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.round = round;
  span.thread = thread_index();
  span.start = now();
  span.end = span.start;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanTrace::end(std::size_t id) {
  const double t = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = t;
}

std::size_t SpanTrace::add(const char* name, double start, double end,
                           std::int64_t round, std::size_t parent,
                           std::size_t thread) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.round = round;
  span.thread = thread == kCallingThread ? thread_index() : thread;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return spans_.size() - 1;
}

std::vector<Span> SpanTrace::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanTrace::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %lld, \"round\": %lld}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, s.start * 1e6,
                 (s.end - s.start) * 1e6, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<long long>(s.round));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
