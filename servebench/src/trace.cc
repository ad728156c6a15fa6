#include <fstream>

#include "bench.h"

namespace servebench {

namespace {
thread_local Tracer* tls_owner = nullptr;
thread_local void* tls_buffer = nullptr;
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Buffer* Tracer::LocalBuffer() {
  if (tls_owner != this) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread = static_cast<uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 16);
    tls_buffer = buffer.get();
    tls_owner = this;
    buffers_.push_back(std::move(buffer));
  }
  return static_cast<Buffer*>(tls_buffer);
}

int32_t Tracer::Begin(const char* name, uint64_t request) {
  Buffer* b = LocalBuffer();
  const int32_t parent = b->open.empty() ? -1 : b->open.back();
  if (parent >= 0) request = b->spans[parent].request;
  const auto token = static_cast<int32_t>(b->spans.size());
  b->spans.push_back({name,
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count(),
                      0, parent, request});
  b->open.push_back(token);
  return token;
}

void Tracer::End(int32_t token) {
  Buffer* b = LocalBuffer();
  b->spans[token].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
  b->open.pop_back();
}

Tracer::Totals Tracer::Summarize(const std::string& root) const {
  Totals totals;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Buffer>& b : buffers_) {
    const std::vector<Span>& spans = b->spans;
    // Children of one thread run sequentially inside their parent, so the
    // time they cover is the sum of their durations.
    std::vector<int64_t> child_ns(spans.size(), 0);
    std::vector<int32_t> root_of(spans.size(), -1);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
        root_of[i] = root_of[s.parent];
      } else {
        root_of[i] = static_cast<int32_t>(i);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (root != spans[root_of[i]].name) continue;
      const double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
      totals.self_ns[s.name] += self;
      if (s.parent < 0) {
        totals.root_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return totals;
}

sqo::Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return sqo::InternalError("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Buffer>& b : buffers_) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      out << "{\"thread\":" << b->thread << ",\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  out.flush();
  return out ? sqo::Status::Ok() : sqo::InternalError("short write to " + path);
}

}  // namespace servebench
