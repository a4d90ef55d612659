#include "spans.h"

namespace rdbbench {

namespace {

constexpr const char* kSpanNames[] = {
    "read",           "server.route",   "server.pending", "net.roundtrip",
    "write.txn",      "catalog.stmt",   "catalog.commit", "replay.stmt",
    "sql.parse",      "sql.plan",       "interp.run",     "engine.exec",
    "net.encode",     "net.decode",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
                  static_cast<size_t>(SpanName::kCount),
              "one text per span name");

}  // namespace

const char* SpanNameText(SpanName n) {
  return kSpanNames[static_cast<size_t>(n)];
}

void SpanLog::Dump(std::FILE* f, uint64_t* next_id,
                   size_t max_requests) const {
  size_t roots = 0;
  for (const Span& s : spans_) roots += s.parent == 0;
  const uint64_t stride = roots > max_requests ? roots / max_requests + 1 : 1;
  const uint64_t base = *next_id;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.request % stride != 0) continue;
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(base + i),
                 static_cast<unsigned long long>(
                     s.parent == 0 ? 0 : base + s.parent - 1),
                 static_cast<unsigned long long>(s.request),
                 SpanNameText(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  *next_id = base + spans_.size();
}

}  // namespace rdbbench
