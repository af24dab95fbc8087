#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace nvhalt::telemetry {

const char* ro_abort_cause_name(RoAbortCause c) {
  switch (c) {
    case RoAbortCause::kRoValidation: return "ro_validation";
    case RoAbortCause::kRoDemotion: return "ro_demotion";
    case RoAbortCause::kNumCauses: break;
  }
  return "unknown";
}

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTxBegin: return "tx_begin";
    case EventKind::kHwAttempt: return "hw_attempt";
    case EventKind::kHwAbort: return "hw_abort";
    case EventKind::kHwCommit: return "hw_commit";
    case EventKind::kFallback: return "fallback";
    case EventKind::kSwAttempt: return "sw_attempt";
    case EventKind::kSwValidate: return "sw_validate";
    case EventKind::kSwExtend: return "sw_extend";
    case EventKind::kSwAbort: return "sw_abort";
    case EventKind::kSwCommit: return "sw_commit";
    case EventKind::kUserAbort: return "user_abort";
    case EventKind::kLockAcquire: return "lock_acquire";
    case EventKind::kLockStall: return "lock_stall";
    case EventKind::kFlushEnqueue: return "flush_enqueue";
    case EventKind::kFence: return "fence";
    case EventKind::kDurabilityAck: return "durability_ack";
    case EventKind::kRoAttempt: return "ro_attempt";
    case EventKind::kRoCommit: return "ro_commit";
    case EventKind::kRoAbort: return "ro_abort";
    case EventKind::kRead: return "read";
    case EventKind::kWrite: return "write";
    case EventKind::kNumKinds: break;
  }
  return "unknown";
}

namespace {
/// A steady_clock reading and the tick count at that instant: the midpoint
/// of two tick reads around the clock read, from the tightest of a few
/// tries, so a preemption between the reads cannot skew the pair.
std::pair<std::chrono::steady_clock::time_point, std::uint64_t> clock_and_ticks() {
  std::chrono::steady_clock::time_point t{};
  std::uint64_t ticks = 0, gap = ~std::uint64_t{0};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t c0 = now_ticks();
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t c1 = now_ticks();
    if (c1 - c0 < gap) {
      gap = c1 - c0;
      t = now;
      ticks = c0 + gap / 2;
    }
  }
  return {t, ticks};
}
}  // namespace

double calibrate_ticks_per_us() {
  const auto [t0, c0] = clock_and_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto [t1, c1] = clock_and_ticks();
  const double us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(t1 - t0)
          .count();
  if (us <= 0.0 || c1 <= c0) return 1.0;
  return static_cast<double>(c1 - c0) / us;
}

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

TraceRing::TraceRing(std::size_t capacity)
    : slots_(new std::atomic<std::uint64_t>[round_up_pow2(std::max<std::size_t>(capacity, 2)) * kWordsPerSlot]{}),
      mask_(round_up_pow2(std::max<std::size_t>(capacity, 2)) - 1) {}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const std::size_t cap = capacity();
  const std::uint64_t h1 = head_.load(std::memory_order_acquire);
  const std::uint64_t lo1 = h1 > cap ? h1 - cap : 0;

  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(h1 - lo1));
  std::vector<std::uint64_t> seqs;
  seqs.reserve(static_cast<std::size_t>(h1 - lo1));

  for (std::uint64_t seq = lo1; seq < h1; ++seq) {
    const std::size_t base = (static_cast<std::size_t>(seq) & mask_) * kWordsPerSlot;
    TraceEvent ev;
    unpack_meta(slots_[base + 0].load(std::memory_order_relaxed), ev);
    ev.arg = slots_[base + 1].load(std::memory_order_relaxed);
    ev.ticks = slots_[base + 2].load(std::memory_order_relaxed);
    out.push_back(ev);
    seqs.push_back(seq);
  }

  // Any slot a push *started* during (or before) the copy may alias was
  // possibly overwritten — torn — while we copied; discard it. Checking the
  // started counter rather than the published head covers the producer's
  // one in-flight push, whose slot stores can be visible before its head
  // bump. The acquire fence pairs with the release fence in push(): if any
  // of push N's slot words was read above, started_ >= N is read here. The
  // survivors were stable for the whole copy, so their three words are
  // consistent; when the producer is quiescent started_ == head_ and
  // nothing extra is discarded.
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t h2 = started_.load(std::memory_order_relaxed);
  const std::uint64_t lo2 = h2 > cap ? h2 - cap : 0;
  std::size_t keep_from = 0;
  while (keep_from < seqs.size() && seqs[keep_from] < lo2) ++keep_from;
  if (keep_from > 0) out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(keep_from));
  return out;
}

TraceBuffer& TraceBuffer::instance() {
  static TraceBuffer buf;
  return buf;
}

TraceBuffer::TraceBuffer() : rings_(new PaddedRing[kMaxThreads]) {}

std::vector<ThreadTrace> TraceBuffer::collect() const {
  std::vector<ThreadTrace> out;
  for (int tid = 0; tid < kMaxThreads; ++tid) {
    const TraceRing& r = rings_[static_cast<std::size_t>(tid)].value;
    if (r.pushed() == 0) continue;
    ThreadTrace tt;
    tt.tid = tid;
    tt.pushed = r.pushed();
    tt.dropped = r.dropped();
    tt.capacity = r.capacity();
    tt.events = r.snapshot();
    out.push_back(std::move(tt));
  }
  return out;
}

void TraceBuffer::clear() {
  for (int tid = 0; tid < kMaxThreads; ++tid) rings_[static_cast<std::size_t>(tid)].value.clear();
}

}  // namespace nvhalt::telemetry
