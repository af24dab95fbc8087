#include "telemetry/flight_recorder.hpp"

#include <algorithm>

namespace nvhalt::telemetry {

FlightRecorder::FlightRecorder(PmemPool& pool, std::uint32_t slots_per_thread)
    : pool_(pool),
      slots_(slots_per_thread),
      base_(pool.alloc_raw(metadata_words(slots_per_thread))),
      cur_(new Cursor[kMaxThreads]) {
  if (!pool_.attached_existing()) {
    // Durable header seed; recovery adopts existing images instead.
    pool_.raw_store(0, base_, pack_header(slots_));
    pool_.flush_raw(0, base_);
    pool_.fence(0);
  }
}

std::size_t FlightRecorder::ring_words() const {
  const std::size_t words = static_cast<std::size_t>(slots_) * 2;
  return (words + kWordsPerLine - 1) / kWordsPerLine * kWordsPerLine;
}

std::size_t FlightRecorder::metadata_words(std::uint32_t slots_per_thread) {
  const std::size_t words = static_cast<std::size_t>(slots_per_thread) * 2;
  const std::size_t ring = (words + kWordsPerLine - 1) / kWordsPerLine * kWordsPerLine;
  return kWordsPerLine + static_cast<std::size_t>(kMaxThreads) * ring;
}

void FlightRecorder::record_impl(int tid, EventKind kind, std::uint8_t cause,
                                 std::uint16_t arg) {
  Cursor& c = cur_[static_cast<std::size_t>(tid)];
  const std::uint64_t w0 = pack_slot(c.seq, kind, cause, arg);
  const std::size_t idx = thread_base(tid) + static_cast<std::size_t>(c.pos) * 2;
  // Slot words share a cache line (2-word-aligned within the 8-word line),
  // so the pool's same-line store-order prefix means a crash can persist
  // {nothing, w0, w0+w1} — never w1 alone; the checksum catches the torn
  // middle case. No fence: the record rides tid's next protocol fence.
  pool_.raw_store(tid, idx, w0);
  pool_.raw_store(tid, idx + 1, checksum(w0));
  pool_.flush_raw(tid, idx);
  c.seq++;
  c.pos = (c.pos + 1 == slots_) ? 0 : c.pos + 1;
}

PostmortemReport FlightRecorder::postmortem() const {
  PostmortemReport rep;
  rep.header_valid = pool_.raw_load_durable(base_) == pack_header(slots_);
  if (!rep.header_valid) return rep;

  for (int tid = 0; tid < kMaxThreads; ++tid) {
    ThreadTrace t;
    t.tid = tid;
    t.capacity = slots_;
    const std::size_t tb = thread_base(tid);
    for (std::uint32_t s = 0; s < slots_; ++s) {
      const std::uint64_t w0 = pool_.raw_load_durable(tb + s * 2);
      const std::uint64_t w1 = pool_.raw_load_durable(tb + s * 2 + 1);
      if (w0 == 0 && w1 == 0) continue;  // never written
      ++t.pushed;
      if (w1 != checksum(w0) || (w0 >> 32) == 0) {
        ++t.torn;
        continue;
      }
      TraceEvent ev;
      ev.ticks = w0 >> 32;
      ev.kind = static_cast<EventKind>((w0 >> 24) & 0xFF);
      ev.cause = static_cast<std::uint8_t>((w0 >> 16) & 0xFF);
      ev.arg = w0 & 0xFFFF;
      ev.tid = static_cast<std::uint16_t>(tid);
      t.events.push_back(ev);
    }
    if (t.pushed == 0) continue;
    std::sort(t.events.begin(), t.events.end(),
              [](const TraceEvent& a, const TraceEvent& b) { return a.ticks < b.ticks; });
    rep.trace.threads.push_back(std::move(t));
  }
  return rep;
}

void FlightRecorder::on_recover(int rtid) {
  const PostmortemReport rep = postmortem();
  for (int tid = 0; tid < kMaxThreads; ++tid) {
    cur_[static_cast<std::size_t>(tid)] = Cursor{};
  }
  for (const ThreadTrace& t : rep.trace.threads) {
    Cursor& c = cur_[static_cast<std::size_t>(t.tid)];
    if (!t.events.empty()) c.seq = static_cast<std::uint32_t>(t.events.back().ticks) + 1;
    // Resume after the slots that held data so decoded history is
    // overwritten oldest-first, exactly as live operation would.
    c.pos = static_cast<std::uint32_t>(t.pushed % slots_);
  }
  if (!rep.header_valid) {
    pool_.raw_store(rtid, base_, pack_header(slots_));
    pool_.flush_raw(rtid, base_);
  }
  record(rtid, EventKind::kRecovery);
  pool_.fence(rtid);
}

}  // namespace nvhalt::telemetry
