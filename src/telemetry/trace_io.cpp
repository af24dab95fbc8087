#include "telemetry/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

namespace nvhalt::telemetry {

namespace {

bool kind_from_name(const std::string& name, EventKind& out) {
  for (int k = 0; k < static_cast<int>(EventKind::kNumKinds); ++k) {
    if (name == event_kind_name(static_cast<EventKind>(k))) {
      out = static_cast<EventKind>(k);
      return true;
    }
  }
  return false;
}

/// Inverse of event_cause_name for an event of kind `e.kind`.
bool cause_from_name(const std::string& name, TraceEvent& e) {
  e.cause = 0xFF;
  if (name == "-") return true;
  TraceEvent probe = e;
  for (probe.cause = 0; const char* n = event_cause_name(probe); ++probe.cause) {
    if (name == n) {
      e.cause = probe.cause;
      return true;
    }
  }
  return false;
}

/// `kv` is `key` followed by a whole number; never throws.
bool field(const std::string& kv, const char* key, std::uint64_t& out) {
  const std::size_t klen = std::char_traits<char>::length(key);
  if (kv.compare(0, klen, key) != 0 || kv.size() == klen) return false;
  const char* end = kv.data() + kv.size();
  const auto [p, ec] = std::from_chars(kv.data() + klen, end, out);
  return ec == std::errc() && p == end;
}

bool field(const std::string& kv, const char* key, double& out) {
  const std::size_t klen = std::char_traits<char>::length(key);
  if (kv.compare(0, klen, key) != 0 || kv.size() == klen) return false;
  char* end = nullptr;
  out = std::strtod(kv.c_str() + klen, &end);
  return end == kv.c_str() + kv.size();
}

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

// Terminal lifecycle kinds: a kTxBegin followed by one of these is closed;
// hw/sw attempt aborts retry within the same transaction and do not close
// it.
bool closes_tx(EventKind k) {
  return k == EventKind::kHwCommit || k == EventKind::kSwCommit ||
         k == EventKind::kUserAbort || k == EventKind::kRoCommit ||
         k == EventKind::kRoAbort;
}

}  // namespace

std::uint64_t TraceDump::total_events() const {
  std::uint64_t n = 0;
  for (const ThreadTrace& t : threads) n += t.events.size();
  return n;
}

std::uint64_t TraceDump::total_dropped() const {
  std::uint64_t n = 0;
  for (const ThreadTrace& t : threads) n += t.dropped;
  return n;
}

TraceDump collect_trace_dump() {
  TraceDump dump;
  if constexpr (kLevel >= 1) {
    dump.ticks_per_us = calibrate_ticks_per_us();
    dump.threads = TraceBuffer::instance().collect();
  }
  return dump;
}

const char* event_cause_name(const TraceEvent& e) {
  if (e.kind == EventKind::kHwAbort && e.cause < kNumAbortCauses)
    return htm::abort_cause_name(static_cast<htm::AbortCause>(e.cause));
  if (e.kind == EventKind::kRoAbort && e.cause < kNumRoAbortCauses)
    return ro_abort_cause_name(static_cast<RoAbortCause>(e.cause));
  return nullptr;
}

void write_raw_trace(std::ostream& os, const TraceDump& dump) {
  os << "# nvhalt-trace-v1 level=" << dump.level
     << " ticks_per_us=" << dump.ticks_per_us << "\n";
  for (const ThreadTrace& t : dump.threads) {
    os << "# ring tid=" << t.tid << " pushed=" << t.pushed << " dropped=" << t.dropped
       << " capacity=" << t.capacity << "\n";
    for (const TraceEvent& e : t.events) {
      const char* cause = event_cause_name(e);
      os << e.ticks << ' ' << event_kind_name(e.kind) << ' ' << e.tid << ' '
         << e.arg << ' ' << (cause != nullptr ? cause : "-") << '\n';
    }
  }
}

bool read_raw_trace(std::istream& is, TraceDump& dump, std::string* err) {
  const auto fail = [&](const std::string& msg) {
    if (err) *err = msg;
    return false;
  };
  dump = TraceDump{};

  std::string line;
  if (!std::getline(is, line)) return fail("empty input");
  {
    std::istringstream hs(line);
    std::string hash, magic, level_kv, tpu_kv;
    hs >> hash >> magic >> level_kv >> tpu_kv;
    std::uint64_t level = 0;
    if (hash != "#" || magic != "nvhalt-trace-v1" || !field(level_kv, "level=", level) ||
        level > 2 || !field(tpu_kv, "ticks_per_us=", dump.ticks_per_us))
      return fail("bad header at line 1: " + line);
    dump.level = static_cast<int>(level);
  }

  ThreadTrace* cur = nullptr;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line);
      std::string hash, tag, tid_kv, pushed_kv, dropped_kv, cap_kv, extra;
      hs >> hash >> tag >> tid_kv >> pushed_kv >> dropped_kv >> cap_kv >> extra;
      ThreadTrace t;
      std::uint64_t tid = 0;
      if (tag != "ring" || !field(tid_kv, "tid=", tid) || tid > 0xFFFF ||
          !field(pushed_kv, "pushed=", t.pushed) || !field(dropped_kv, "dropped=", t.dropped) ||
          (!cap_kv.empty() && !field(cap_kv, "capacity=", t.capacity)) || !extra.empty())
        return fail("bad ring header at line " + std::to_string(lineno) + ": " + line);
      t.tid = static_cast<int>(tid);
      dump.threads.push_back(std::move(t));
      cur = &dump.threads.back();
      continue;
    }
    if (!cur) return fail("event before any ring header at line " + std::to_string(lineno));
    std::istringstream es(line);
    std::string kind_name, cause_name;
    TraceEvent e;
    unsigned tid = 0;
    if (!(es >> e.ticks >> kind_name >> tid >> e.arg >> cause_name))
      return fail("malformed event at line " + std::to_string(lineno));
    e.tid = static_cast<std::uint16_t>(tid);
    if (!kind_from_name(kind_name, e.kind))
      return fail("unknown event kind '" + kind_name + "' at line " + std::to_string(lineno));
    if (!cause_from_name(cause_name, e))
      return fail("unknown abort cause '" + cause_name + "' at line " + std::to_string(lineno));
    cur->events.push_back(e);
  }
  return true;
}

bool check_trace(const TraceDump& dump, std::string* err) {
  for (const ThreadTrace& t : dump.threads) {
    const auto fail = [&](const std::string& msg) {
      if (err) *err = "tid " + std::to_string(t.tid) + ": " + msg;
      return false;
    };
    // Surviving events are what the capture still holds; with the dropped
    // count they can exceed pushed only if the file was corrupted or
    // hand-edited.
    const std::uint64_t held = t.events.size();
    if (held + t.dropped > t.pushed)
      return fail(std::to_string(held) + " events + " + std::to_string(t.dropped) +
                  " dropped > pushed " + std::to_string(t.pushed));
    // With the ring capacity known, dropped is fully reconstructible: the
    // ring keeps at most `capacity` slots, so pushed - dropped must equal
    // what it holds.
    if (t.capacity > 0 && held > t.capacity)
      return fail(std::to_string(held) + " slots exceed ring capacity " +
                  std::to_string(t.capacity));
    if (t.capacity > 0 && t.pushed - t.dropped != held)
      return fail("pushed " + std::to_string(t.pushed) + " - dropped " +
                  std::to_string(t.dropped) + " != " + std::to_string(held) +
                  " surviving slots");
    for (std::size_t i = 1; i < t.events.size(); ++i)
      if (t.events[i].ticks < t.events[i - 1].ticks)
        return fail("non-monotonic timestamps within one ring");
  }
  return true;
}

InFlight in_flight(const ThreadTrace& t) {
  InFlight f;
  const std::size_t n = t.events.size();
  std::size_t open_begin = n;
  std::size_t last_fence = n;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& e = t.events[i];
    if (e.kind == EventKind::kTxBegin) open_begin = i;
    if (closes_tx(e.kind)) open_begin = n;
    if (e.kind == EventKind::kFence) last_fence = i;
    if (e.cause != 0xFF) f.last_caused = e;
  }
  f.open_tx = open_begin < n;
  for (std::size_t i = open_begin; i < n; ++i)
    if (t.events[i].kind == EventKind::kLockAcquire) f.held_locks += t.events[i].arg;
  f.past_fence = last_fence == n ? n : n - last_fence - 1;
  return f;
}

void write_chrome_trace(std::ostream& os, const TraceDump& dump) {
  const double tpu = dump.ticks_per_us > 0.0 ? dump.ticks_per_us : 1.0;
  std::uint64_t min_ticks = ~std::uint64_t{0};
  for (const ThreadTrace& t : dump.threads)
    for (const TraceEvent& e : t.events) min_ticks = std::min(min_ticks, e.ticks);
  if (dump.total_events() == 0) min_ticks = 0;

  const auto ts_us = [&](std::uint64_t ticks) {
    return static_cast<double>(ticks - min_ticks) / tpu;
  };

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (const ThreadTrace& t : dump.threads) {
    // One open transaction per tid at a time: the retry loop is
    // strictly nested, so a simple begin-ticks latch pairs events.
    bool open = false;
    std::uint64_t begin_ticks = 0;
    for (const TraceEvent& e : t.events) {
      switch (e.kind) {
        case EventKind::kTxBegin:
          open = true;
          begin_ticks = e.ticks;
          break;
        case EventKind::kHwCommit:
        case EventKind::kSwCommit:
        case EventKind::kUserAbort: {
          const char* name = e.kind == EventKind::kHwCommit ? "tx(hw)"
                             : e.kind == EventKind::kSwCommit ? "tx(sw)"
                                                              : "tx(user-abort)";
          if (open) {
            comma();
            os << "{\"name\":\"" << name << "\",\"cat\":\"tm\",\"ph\":\"X\",\"ts\":"
               << ts_us(begin_ticks) << ",\"dur\":" << ts_us(e.ticks) - ts_us(begin_ticks)
               << ",\"pid\":0,\"tid\":" << t.tid << ",\"args\":{\"arg\":" << e.arg
               << "}}";
            open = false;
          }
          break;
        }
        default: {
          comma();
          os << "{\"name\":\"";
          json_escape(os, event_kind_name(e.kind));
          os << "\",\"cat\":\"tm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us(e.ticks)
             << ",\"pid\":0,\"tid\":" << t.tid << ",\"args\":{\"arg\":" << e.arg;
          if (const char* cause = event_cause_name(e)) {
            os << ",\"cause\":\"";
            json_escape(os, cause);
            os << "\"";
          }
          if (e.kind == EventKind::kLockStall) {
            // arg packs stripe << 48 | wait ticks — surface both so the
            // viewer can group stalls by contended stripe.
            os << ",\"stripe\":" << (e.arg >> 48)
               << ",\"wait_ticks\":" << (e.arg & ((std::uint64_t{1} << 48) - 1));
          }
          os << "}}";
          break;
        }
      }
    }
  }
  os << "]}";
}

bool write_raw_trace_file(const std::string& path, const TraceDump& dump) {
  std::ofstream os(path);
  if (!os) return false;
  write_raw_trace(os, dump);
  return static_cast<bool>(os);
}

bool write_chrome_trace_file(const std::string& path, const TraceDump& dump) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os, dump);
  return static_cast<bool>(os);
}

}  // namespace nvhalt::telemetry
