// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into the library's public API, kept in memory and written out at exit.
//
// Span tree: an op span (kind, client, seq) is the parent of one attempt
// span per execution of its transaction body. Attempts are stamped by an
// RAII scope inside the body, so an attempt that unwinds (HtmAbort, a
// software conflict) is still closed. The committing attempt is the last
// one, which splits every op exactly into
//     retry  = op start   -> committing attempt start   (runtime retry loop)
//     body   = attempt start -> attempt end             (structure code)
//     commit = attempt end -> run() return              (core commit + persist)
// Coordinator spans cover pool init, prefill, checkpoint, crash, recover
// and verify.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "host.hpp"
#include "workload.hpp"

namespace perfbench {

enum class SpanType : std::uint8_t {
  kOp,
  kAttempt,
  kCheckpoint,
  kCrash,
  kRecover,
  kVerify,
  kPoolInit,
  kPrefill,
};

inline constexpr std::uint8_t kCoordinator = 0xFF;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t seq = 0;          // op sequence number within its client
  SpanType type = SpanType::kOp;
  Kind kind = Kind::kLookup;      // op and attempt spans
  std::uint8_t client = kCoordinator;
  std::uint8_t completed = 1;     // attempt: 1 = body returned, 0 = unwound
};

/// Fixed-capacity span store, written by one thread only.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  void push(const Span& s) {
    if (spans_.size() < spans_.capacity())
      spans_.push_back(s);
    else
      ++dropped_;
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t bytes() const { return spans_.size() * sizeof(Span); }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Per-op stamping state shared between the op loop and its attempts.
struct OpStamp {
  TraceBuffer* buf = nullptr;  // null: op not sampled (attempts still stamped)
  std::uint64_t seq = 0;
  Kind kind = Kind::kLookup;
  std::uint8_t client = 0;
};

/// RAII attempt stamp: opened at body entry, closed at body exit or unwind.
class AttemptScope {
 public:
  explicit AttemptScope(OpStamp& op) : op_(op), start_(now_ns()) {}
  ~AttemptScope() {
    const std::uint64_t end = now_ns();
    if (op_.buf != nullptr)
      op_.buf->push({start_, end, op_.seq, SpanType::kAttempt, op_.kind, op_.client, completed_});
  }
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;

  void done() { completed_ = 1; }

 private:
  OpStamp& op_;
  std::uint64_t start_;
  std::uint8_t completed_ = 0;
};

/// What the reducer derives from the spans of the traced phase.
struct TraceSummary {
  struct PerKind {
    std::uint64_t ops = 0;       // sampled ops
    double retry_us = 0;         // means over sampled ops
    double body_us = 0;
    double commit_us = 0;
  };
  std::array<PerKind, kKinds> kinds;
  std::uint64_t ops = 0;
  std::uint64_t unnested = 0;    // committing attempt not inside its op span
  std::uint64_t orphan_ops = 0;  // op spans with no attempt child
  std::uint64_t dropped = 0;
};

/// Reduces the client buffers' op/attempt spans to per-kind layer times.
TraceSummary reduce_spans(const std::vector<const TraceBuffer*>& buffers);

/// Writes every span as one tab-separated line (times relative to `t0`).
bool write_spans(const std::string& path, const std::vector<const TraceBuffer*>& buffers,
                 std::uint64_t t0);

}  // namespace perfbench
