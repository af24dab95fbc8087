#include "pmem/pmem_inspector.hpp"

#include <sstream>

namespace nvhalt {

PmemReport PmemInspector::scan() const {
  PmemReport r;
  std::uint64_t pvers[kMaxThreads];
  for (int t = 0; t < kMaxThreads; ++t) {
    pvers[t] = pool_.load_pver(t);
    if (pvers[t] != 0) {
      r.active_threads.push_back(t);
      r.thread_pvers.push_back(pvers[t]);
    }
  }
  for (gaddr_t a = 1; a < pool_.capacity_words(); ++a) {
    const PRecord staged = pool_.read_record(a);
    r.touched_records += (staged.cur | staged.old | staged.pver) != 0;
    r.in_flight_records += record_in_flight(staged, pvers);
    const PRecord durable = pool_.read_durable_record(a);
    if (staged.cur != durable.cur || staged.old != durable.old ||
        staged.pver != durable.pver)
      ++r.undurable_records;
  }
  return r;
}

std::string PmemReport::to_string() const {
  std::ostringstream os;
  os << "pmem{touched=" << touched_records << " in_flight=" << in_flight_records
     << " undurable=" << undurable_records << " threads=[";
  for (std::size_t i = 0; i < active_threads.size(); ++i) {
    if (i != 0) os << ",";
    os << active_threads[i] << ":" << thread_pvers[i];
  }
  os << "]}";
  return os.str();
}

std::string PmemInspector::alloc_to_string(const AllocDurableSummary& s) {
  std::ostringstream os;
  if (!s.metadata_present) return "alloc{no-metadata}";
  os << "alloc{watermark=" << s.watermark << "/" << s.segment_count
     << " free_segs=" << s.free_segments << " large_segs=" << s.large_segments
     << " used_slots=" << s.used_slots << " armed_intents=" << s.armed_intents << "}";
  return os.str();
}

}  // namespace nvhalt
