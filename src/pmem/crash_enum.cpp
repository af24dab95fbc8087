#include "pmem/crash_enum.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/rng.hpp"

namespace nvhalt {

PersistEventKind event_kind_from_u64(std::uint64_t raw, const std::string& path) {
  if (raw > static_cast<std::uint64_t>(PersistEventKind::kAllocMark))
    throw TmLogicError("unknown persistence event kind " + std::to_string(raw) + " in " + path);
  return static_cast<PersistEventKind>(raw);
}

std::uint64_t PersistJournal::hash(std::span<const PersistEvent> trace) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001B3ULL;  // FNV prime
    }
  };
  for (const PersistEvent& ev : trace) {
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.tid)));
    mix(ev.line);
    mix(ev.word);
    mix(ev.value);
  }
  return h;
}

std::string CrashTriple::to_string() const {
  std::ostringstream os;
  os << std::hex << trace_hash << std::dec << ":" << prefix << ":" << subset_seed;
  return os.str();
}

CrashImage materialize_crash_image(std::span<const PersistEvent> trace, std::size_t prefix,
                                   std::uint64_t subset_seed) {
  if (prefix > trace.size()) throw TmLogicError("crash prefix beyond trace end");

  // Per-line ordered store history and the index of the first store not yet
  // durable (the line's fenced frontier).
  struct LineState {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stores;  // (word, value)
    std::size_t fenced = 0;
  };
  std::unordered_map<std::uint64_t, LineState> lines;
  std::unordered_map<std::int32_t, std::vector<std::uint64_t>> queues;  // tid -> flushed lines
  std::unordered_map<std::uint64_t, std::uint64_t> durable;             // word -> value

  // A fence persists each queued line *wholesale*: every store recorded for
  // the line so far lands (clflush writes back the full current line, so a
  // neighbouring record's store that preceded the fence persists with it).
  const auto persist_line_upto = [&](LineState& ls, std::size_t upto) {
    for (std::size_t j = ls.fenced; j < upto; ++j) durable[ls.stores[j].first] = ls.stores[j].second;
    if (upto > ls.fenced) ls.fenced = upto;
  };

  for (std::size_t i = 0; i < prefix; ++i) {
    const PersistEvent& ev = trace[i];
    switch (ev.kind) {
      case PersistEventKind::kStore:
        lines[ev.line].stores.emplace_back(ev.word, ev.value);
        break;
      case PersistEventKind::kFlush:
        queues[ev.tid].push_back(ev.line);
        break;
      case PersistEventKind::kFence: {
        auto it = queues.find(ev.tid);
        if (it == queues.end()) break;
        for (const std::uint64_t line : it->second) {
          auto lit = lines.find(line);
          if (lit != lines.end()) persist_line_upto(lit->second, lit->second.stores.size());
        }
        it->second.clear();
        break;
      }
      case PersistEventKind::kAllocMark:
        break;  // annotation only: no durable effect
    }
  }

  if (subset_seed != 0) {
    // Spontaneous write-back adversary: each dirty line may have been
    // written back at some instant T before power was lost, persisting a
    // store-order prefix (each word's latest store before T). Deterministic:
    // dirty lines are visited in sorted order with a seeded RNG.
    std::vector<std::uint64_t> dirty;
    for (const auto& [line, ls] : lines)
      if (ls.fenced < ls.stores.size()) dirty.push_back(line);
    std::sort(dirty.begin(), dirty.end());
    Xoshiro256 rng(subset_seed);
    for (const std::uint64_t line : dirty) {
      LineState& ls = lines[line];
      if (!rng.next_bool(0.5)) continue;
      const std::size_t cut =
          ls.fenced + rng.next_bounded(ls.stores.size() - ls.fenced + 1);
      persist_line_upto(ls, cut);
    }
  }

  CrashImage img;
  img.words.assign(durable.begin(), durable.end());
  std::sort(img.words.begin(), img.words.end());
  return img;
}

CrashEnumerator::CrashEnumerator(std::vector<PersistEvent> trace, const CrashEnumOptions& opt)
    : trace_(std::move(trace)), opt_(opt), hash_(PersistJournal::hash(trace_)) {
  boundaries_.push_back(0);
  for (std::size_t i = 0; i < trace_.size(); ++i)
    if (trace_[i].kind == PersistEventKind::kFence) boundaries_.push_back(i + 1);
  if (boundaries_.back() != trace_.size()) boundaries_.push_back(trace_.size());
}

std::uint64_t CrashEnumerator::subset_seed_for(std::size_t prefix, std::uint64_t s) const {
  // Decorrelates (base_seed, prefix, sample) into a seed reproducible from
  // the triple alone. Never 0 (0 selects the pure fence image).
  const std::uint64_t seed = mix64(opt_.base_seed ^ mix64(prefix + 1) ^ mix64(s + 1));
  return seed == 0 ? 1 : seed;
}

namespace {

/// Runs one verdict; a checker exception (e.g. TmLogicError from an
/// allocator cross-check) fails the image instead of escaping the sweep,
/// so the failure still carries a replayable triple.
std::optional<CrashFailure> check_image(const CrashImageChecker& check, const CrashImage& img,
                                        const CrashTriple& t) {
  std::string why;
  try {
    if (check(img, t.prefix, t.subset_seed, &why)) return std::nullopt;
  } catch (const std::exception& e) {
    why = std::string("[prefix ") + std::to_string(t.prefix) + "] checker threw: " + e.what();
  }
  return CrashFailure{t, why};
}

}  // namespace

std::optional<CrashFailure> CrashEnumerator::run(const CrashImageChecker& check) {
  stats_ = CrashEnumStats{};
  const auto start = std::chrono::steady_clock::now();
  const auto over_budget = [&] {
    if (opt_.time_budget_ms == 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return static_cast<std::uint64_t>(elapsed) >= opt_.time_budget_ms;
  };

  // Stride-sample when a prefix cap is set, covering the whole trace
  // instead of just its beginning.
  const std::size_t n = boundaries_.size();
  const std::size_t stride =
      (opt_.max_prefixes != 0 && n > opt_.max_prefixes) ? (n + opt_.max_prefixes - 1) / opt_.max_prefixes
                                                        : 1;

  for (std::size_t b = 0; b < n; b += stride) {
    if (over_budget()) {
      stats_.budget_exhausted = true;
      return std::nullopt;
    }
    const std::size_t prefix = boundaries_[b];
    ++stats_.prefixes_checked;
    for (std::uint64_t s = 0; s <= opt_.subset_seeds_per_prefix; ++s) {
      const std::uint64_t seed = s == 0 ? 0 : subset_seed_for(prefix, s - 1);
      const CrashImage img = materialize_crash_image(trace_, prefix, seed);
      ++stats_.images_checked;
      if (auto failure = check_image(check, img, CrashTriple{hash_, prefix, seed}))
        return failure;
    }
  }
  return std::nullopt;
}

std::optional<CrashFailure> CrashEnumerator::replay(const CrashTriple& t,
                                                    const CrashImageChecker& check) {
  if (t.trace_hash != hash_) {
    std::ostringstream os;
    os << "trace hash mismatch: triple is for " << std::hex << t.trace_hash << ", this trace is "
       << hash_ << " — replay needs the saved trace of the failing run";
    return CrashFailure{t, os.str()};
  }
  const CrashImage img = materialize_crash_image(trace_, t.prefix, t.subset_seed);
  ++stats_.images_checked;
  return check_image(check, img, t);
}

// ---- Trace file I/O ------------------------------------------------------

namespace {
constexpr std::uint64_t kTraceMagic = 0x4E56485443525431ULL;  // "NVHTCRT1"

void put_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint64_t get_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
}  // namespace

void save_trace(const std::string& path, std::span<const PersistEvent> trace) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw TmLogicError("cannot open trace file for writing: " + path);
  put_u64(f, kTraceMagic);
  put_u64(f, trace.size());
  for (const PersistEvent& ev : trace) {
    put_u64(f, static_cast<std::uint64_t>(ev.kind));
    put_u64(f, static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.tid)));
    put_u64(f, ev.line);
    put_u64(f, ev.word);
    put_u64(f, ev.value);
  }
  put_u64(f, PersistJournal::hash(trace));
  if (!f) throw TmLogicError("short write to trace file: " + path);
}

std::vector<PersistEvent> load_trace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw TmLogicError("cannot open trace file: " + path);
  if (get_u64(f) != kTraceMagic) throw TmLogicError("not a crash-trace file: " + path);
  const std::uint64_t n = get_u64(f);
  std::vector<PersistEvent> trace;
  trace.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    PersistEvent ev;
    ev.kind = event_kind_from_u64(get_u64(f), path);
    ev.tid = static_cast<std::int32_t>(static_cast<std::uint32_t>(get_u64(f)));
    ev.line = get_u64(f);
    ev.word = get_u64(f);
    ev.value = get_u64(f);
    trace.push_back(ev);
  }
  const std::uint64_t stored_hash = get_u64(f);
  if (!f) throw TmLogicError("truncated trace file: " + path);
  if (stored_hash != PersistJournal::hash(trace))
    throw TmLogicError("trace file hash mismatch (corrupt file): " + path);
  return trace;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace nvhalt
