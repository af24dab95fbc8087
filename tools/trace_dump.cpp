// trace_dump: convert an nvhalt-trace-v1 file (crash_sweep --trace-out, or
// any binary calling telemetry::write_raw_trace_file) into chrome://tracing
// JSON, or check it.
//
//   trace_dump <trace.txt> [-o out.json]   convert (default out: stdout)
//   trace_dump --check <trace.txt>         parse + consistency check
//
// --check verifies the file parses and every ring passes
// telemetry::check_trace (event and dropped counts against its
// pushed/capacity header; monotonic timestamps), then prints a summary
// line and, per ring, what it says was in flight: an open transaction and
// the lock lines it held, records past the last fence, the last abort
// cause, and the last five event kinds. Exit status 0 on success, 1 on any
// parse or consistency failure.
#include <fstream>
#include <iostream>
#include <string>

#include "telemetry/trace_io.hpp"

namespace tel = nvhalt::telemetry;

namespace {

int usage() {
  std::cerr << "usage: trace_dump <trace.txt> [-o out.json]\n"
               "       trace_dump --check <trace.txt>\n";
  return 2;
}

void print_summary(const tel::TraceDump& dump) {
  std::cout << "trace_dump: ok: level=" << dump.level << " rings=" << dump.threads.size()
            << " events=" << dump.total_events() << " dropped=" << dump.total_dropped() << "\n";
  for (const tel::ThreadTrace& t : dump.threads) {
    const tel::InFlight f = tel::in_flight(t);
    std::cout << "  tid " << t.tid << ": " << t.events.size() << " events";
    if (f.open_tx) std::cout << ", OPEN tx holding " << f.held_locks << " lock line(s)";
    if (f.past_fence > 0) std::cout << ", " << f.past_fence << " record(s) past last fence";
    if (const char* cause = tel::event_cause_name(f.last_caused))
      std::cout << ", last cause " << cause;
    if (!t.events.empty()) {
      std::cout << "\n    tail:";
      const std::size_t from = t.events.size() > 5 ? t.events.size() - 5 : 0;
      for (std::size_t i = from; i < t.events.size(); ++i)
        std::cout << " " << tel::event_kind_name(t.events[i].kind);
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool check_only = false;
  std::string in_path, out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      check_only = true;
    } else if (a == "-o") {
      if (++i >= argc) return usage();
      out_path = argv[i];
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else if (in_path.empty()) {
      in_path = a;
    } else {
      return usage();
    }
  }
  if (in_path.empty()) return usage();

  std::ifstream is(in_path);
  if (!is) {
    std::cerr << "trace_dump: cannot open " << in_path << "\n";
    return 1;
  }
  tel::TraceDump dump;
  std::string err;
  if (!tel::read_raw_trace(is, dump, &err)) {
    std::cerr << "trace_dump: " << in_path << ": " << err << "\n";
    return 1;
  }

  if (check_only) {
    if (!tel::check_trace(dump, &err)) {
      std::cerr << "trace_dump: " << in_path << ": " << err << "\n";
      return 1;
    }
    print_summary(dump);
    return 0;
  }

  if (out_path.empty()) {
    tel::write_chrome_trace(std::cout, dump);
    std::cout << "\n";
    return 0;
  }
  if (!tel::write_chrome_trace_file(out_path, dump)) {
    std::cerr << "trace_dump: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
