// In-memory span recording for the traced run. Spans are taken from the
// benchmark's own code around its calls into each layer; nothing inside the
// engine is instrumented. Each recording thread owns one SpanLog, so the hot
// path is a vector append with no synchronisation.
#ifndef RDBBENCH_SPANS_H_
#define RDBBENCH_SPANS_H_

#include <cstdint>
#include <cstdio>
#include <vector>

namespace rdbbench {

/// Span names; the dump writes them as text (see kSpanNames in spans.cc).
enum class SpanName : uint8_t {
  kRead,           // part A: one SELECT, submit to result
  kRoute,          // part A: QueryService::SubmitAsync on the caller
  kPending,        // part A: SubmitAsync returned -> completion callback
  kRoundtrip,      // part A (wire): net::Client::Query
  kWriteTxn,       // one writer transaction, scheduled start to commit result
  kCatalogStmt,    // in-transaction BEGIN / UPDATE through Submit
  kCatalogCommit,  // autocommit DML or COMMIT through Submit
  kReplayStmt,     // part B: one replayed SELECT
  kParse,          // sql::ParseStatement
  kPlan,           // Fingerprint + PlanCache lookup + bind or compile
  kInterpRun,      // Interpreter::Run
  kEngineExec,     // RunStats::exec_ms, laid at the start of kInterpRun
  kNetEncode,      // net::EncodeResultSet + EncodeFrame
  kNetDecode,      // FrameDecoder + net::DecodeResultSet
  kCount,
};

const char* SpanNameText(SpanName n);

struct Span {
  uint32_t parent = 0;  ///< 1-based index into the same log; 0 = root
  SpanName name = SpanName::kRead;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Appends a finished span and returns its 1-based id within this log.
  uint32_t Add(SpanName name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{parent, name, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size());
  }
  /// Reserves an id for a parent whose end is not known yet; Close() sets
  /// it once the children are recorded.
  uint32_t Open(SpanName name, uint32_t parent, uint64_t request,
                int64_t start_ns) {
    return Add(name, parent, request, start_ns, start_ns);
  }
  void Close(uint32_t id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }

  /// Writes one line per span: `id parent request name start_ns end_ns`,
  /// tab-separated, ids offset by `*next_id` so several logs share one id
  /// space. Advances `*next_id` past this log. A log with more than
  /// `max_requests` root spans is thinned to every k-th request (whole span
  /// trees, selected by request id), which keeps dumps of the hit-path
  /// workloads to tens of megabytes without biasing the per-span means.
  void Dump(std::FILE* f, uint64_t* next_id, size_t max_requests) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace rdbbench

#endif  // RDBBENCH_SPANS_H_
