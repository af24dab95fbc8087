#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

const char* span_type_name(SpanType t) {
  switch (t) {
    case SpanType::kOp: return "op";
    case SpanType::kAttempt: return "attempt";
    case SpanType::kCheckpoint: return "checkpoint";
    case SpanType::kCrash: return "crash";
    case SpanType::kRecover: return "recover";
    case SpanType::kVerify: return "verify";
    case SpanType::kPoolInit: return "pool_init";
    case SpanType::kPrefill: return "prefill";
  }
  return "?";
}

}  // namespace

TraceSummary reduce_spans(const std::vector<const TraceBuffer*>& buffers) {
  TraceSummary s;
  for (const TraceBuffer* b : buffers) {
    s.dropped += b->dropped();
    // Attempts precede their op span in a client's buffer, so the last
    // attempt seen before an op span is that op's committing attempt.
    const Span* last_attempt = nullptr;
    for (const Span& sp : b->spans()) {
      if (sp.type == SpanType::kAttempt) {
        last_attempt = &sp;
        continue;
      }
      if (sp.type != SpanType::kOp) continue;
      if (last_attempt == nullptr || last_attempt->seq != sp.seq) {
        ++s.orphan_ops;
      } else if (last_attempt->start_ns < sp.start_ns || last_attempt->end_ns > sp.end_ns) {
        ++s.unnested;
      } else {
        // The three parts tile [op start, op end], so they sum to its latency.
        const std::uint64_t retry = last_attempt->start_ns - sp.start_ns;
        const std::uint64_t body = last_attempt->end_ns - last_attempt->start_ns;
        const std::uint64_t commit = sp.end_ns - last_attempt->end_ns;
        TraceSummary::PerKind& k = s.kinds[static_cast<std::size_t>(sp.kind)];
        ++k.ops;
        k.retry_us += static_cast<double>(retry) / 1e3;
        k.body_us += static_cast<double>(body) / 1e3;
        k.commit_us += static_cast<double>(commit) / 1e3;
        ++s.ops;
      }
      last_attempt = nullptr;
    }
  }
  for (TraceSummary::PerKind& k : s.kinds) {
    if (k.ops == 0) continue;
    const double n = static_cast<double>(k.ops);
    k.retry_us /= n;
    k.body_us /= n;
    k.commit_us /= n;
  }
  return s;
}

bool write_spans(const std::string& path, const std::vector<const TraceBuffer*>& buffers,
                 std::uint64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "type\tkind\tclient\tseq\tstart_ns\tend_ns\tcompleted\n");
  for (const TraceBuffer* b : buffers) {
    for (const Span& sp : b->spans()) {
      const bool has_kind = sp.type == SpanType::kOp || sp.type == SpanType::kAttempt;
      std::fprintf(f, "%s\t%s\t%d\t%llu\t%lld\t%lld\t%u\n", span_type_name(sp.type),
                   has_kind ? kind_name(sp.kind) : "-",
                   sp.client == kCoordinator ? -1 : static_cast<int>(sp.client),
                   static_cast<unsigned long long>(sp.seq),
                   static_cast<long long>(sp.start_ns - t0), static_cast<long long>(sp.end_ns - t0),
                   static_cast<unsigned>(sp.completed));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
