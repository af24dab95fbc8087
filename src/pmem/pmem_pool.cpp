#include "pmem/pmem_pool.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "htm/htm_tls.hpp"
#include "pmem/crash_enum.hpp"
#include "pmem/crash_sim.hpp"
#include "telemetry/telemetry.hpp"

namespace nvhalt {

namespace {
inline void poll_crash(CrashCoordinator* c) {
  if (NVHALT_UNLIKELY(c != nullptr)) c->crash_point();
}

double process_ticks_per_ns() {
  static const double tpn = telemetry::calibrate_ticks_per_us() / 1000.0;
  return tpn;
}

/// Spins for `ns` modelled nanoseconds on the TSC. Overshoots by at most
/// one tick read.
void spin_ticks(std::uint64_t ns, double ticks_per_ns) {
  const auto ticks = static_cast<std::uint64_t>(std::ceil(static_cast<double>(ns) * ticks_per_ns));
  const std::uint64_t start = telemetry::now_ticks();
  while (telemetry::now_ticks() - start < ticks) {
  }
}
}  // namespace

namespace {
// Raw-region header layout: one line per thread for pVerNum, one line per
// root slot. Keeping each hot persistent scalar on its own line mirrors the
// paper's implementations and avoids simulated same-line interference.
constexpr std::size_t kPverHeaderWords = static_cast<std::size_t>(kMaxThreads) * kWordsPerLine;
constexpr std::size_t kRootHeaderWords = static_cast<std::size_t>(PmemPool::kRootSlots) * kWordsPerLine;
std::size_t pver_word(int tid) { return static_cast<std::size_t>(tid) * kWordsPerLine; }
std::size_t root_word(int slot) {
  return kPverHeaderWords + static_cast<std::size_t>(slot) * kWordsPerLine;
}

// Backing-file layout: one header page, then the raw durable words, then
// the record durable words.
constexpr std::uint64_t kFileMagic = 0x4E564841'4C54504DULL;  // "NVHALTPM"
// 2: allocator intent tags bind their payload (DESIGN.md §12). A version-1
// file's committed intent would fail the new tag check and never be
// re-applied, so such files are rejected instead of recovered.
constexpr std::uint64_t kFileVersion = 2;
constexpr std::size_t kFileHeaderBytes = 4096;
struct FileHeader {
  std::uint64_t magic;
  std::uint64_t version;
  std::uint64_t capacity_words;
  std::uint64_t raw_words_padded;
  std::uint64_t rec_words;
  std::uint64_t initialized;
};
}  // namespace

PmemPool::PmemPool(const PmemConfig& cfg) : cfg_(cfg) {
  if (cfg_.capacity_words < 2) throw TmLogicError("pool too small");
  const std::size_t raw_total = kPverHeaderWords + kRootHeaderWords + cfg_.raw_words;
  raw_lines_ = (raw_total + kWordsPerLine - 1) / kWordsPerLine;
  total_lines_ = raw_lines_ + (cfg_.capacity_words + 1) / 2;  // 2 records per line
  if (cfg_.flush_latency_ns != 0 || cfg_.fence_latency_ns != 0 ||
      cfg_.nvm_store_latency_ns != 0)
    ticks_per_ns_ = process_ticks_per_ns();

  const auto make_image = map_zeroed_array<std::atomic<std::uint64_t>>;
  vmem_ = make_image(cfg_.capacity_words);
  staged_ = make_image(persist_space_words());
  records_ = staged_.get() + raw_space_words();

  // The staged (cache) image starts as a copy of the durable one. An owned
  // image is zero already; a backing file's durable image may hold a
  // previous run's state, which the copy turns into exactly the post-crash
  // view recover_data() expects.
  if (cfg_.backing_path.empty()) {
    durable_owned_ = make_image(persist_space_words());
    durable_ = durable_owned_.get();
  } else {
    map_backing_file();
    for (std::size_t i = 0, n = persist_space_words(); i < n; ++i)
      staged_[i].store(durable_[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }

  if (cfg_.track_store_order) {
    line_clock_ = map_zeroed_array<std::atomic<std::uint32_t>>(total_lines_);
    line_fenced_ = map_zeroed_array<std::atomic<std::uint32_t>>(total_lines_);
    word_window_ = map_zeroed_array<std::atomic<StoreWindow>>(persist_space_words());
  }

  flush_queues_ = std::make_unique<FlushQueue[]>(kMaxThreads);
  for (int t = 0; t < kMaxThreads; ++t) flush_queues_[t].lines.reserve(64);
  raw_bump_.store(kPverHeaderWords + kRootHeaderWords, std::memory_order_relaxed);
}

void PmemPool::map_backing_file() {
  // The payload is the persistent word space itself: raw words, then
  // record words, each at its word index.
  const std::size_t raw_words_padded = raw_space_words();
  const std::size_t rec_words = persist_space_words() - raw_words_padded;
  const std::size_t payload = persist_space_words() * sizeof(std::uint64_t);
  const std::size_t map_len = kFileHeaderBytes + payload;

  const int fd = ::open(cfg_.backing_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) throw TmLogicError("cannot open backing file: " + cfg_.backing_path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw TmLogicError("cannot stat backing file");
  }
  const bool fresh = st.st_size == 0;
  if (fresh && ::ftruncate(fd, static_cast<off_t>(map_len)) != 0) {
    ::close(fd);
    throw TmLogicError("cannot size backing file");
  }
  if (!fresh && static_cast<std::size_t>(st.st_size) != map_len) {
    ::close(fd);
    throw TmLogicError("backing file size does not match the pool geometry");
  }
  void* base = ::mmap(nullptr, map_len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) throw TmLogicError(std::string("mmap failed: ") + std::strerror(errno));
  map_ = std::unique_ptr<char[], Unmap>(static_cast<char*>(base), Unmap{map_len});

  auto* header = reinterpret_cast<FileHeader*>(map_.get());
  durable_ = reinterpret_cast<std::atomic<std::uint64_t>*>(map_.get() + kFileHeaderBytes);

  if (!fresh && header->initialized == 1) {
    if (header->magic != kFileMagic || header->version != kFileVersion)
      throw TmLogicError("backing file is not an NV-HALT pool (bad magic/version)");
    if (header->capacity_words != cfg_.capacity_words ||
        header->raw_words_padded != raw_words_padded || header->rec_words != rec_words)
      throw TmLogicError("backing file geometry does not match the configuration");
    attached_existing_ = true;
    return;
  }
  // Fresh (or never-completed) file: the zero pages from ftruncate are the
  // initial durable image; publish the header last.
  header->magic = kFileMagic;
  header->version = kFileVersion;
  header->capacity_words = cfg_.capacity_words;
  header->raw_words_padded = raw_words_padded;
  header->rec_words = rec_words;
  header->initialized = 1;
}

void PmemPool::sync_to_disk() const {
  if (map_) ::msync(map_.get(), map_.get_deleter().bytes, MS_SYNC);
}

PmemPool::~PmemPool() = default;

void PmemPool::journal_store(int tid, std::size_t word, std::uint64_t value) {
  if (NVHALT_LIKELY(cfg_.journal == nullptr)) return;
  cfg_.journal->on_store(tid, line_of(word), word, value);
}

void PmemPool::journal_flush(int tid, std::size_t line) {
  if (NVHALT_LIKELY(cfg_.journal == nullptr)) return;
  cfg_.journal->on_flush(tid, line);
}

void PmemPool::journal_fence(int tid) {
  if (NVHALT_LIKELY(cfg_.journal == nullptr)) return;
  cfg_.journal->on_fence(tid);
}

void PmemPool::journal_alloc_mark(int tid, std::uint64_t value) {
  if (NVHALT_LIKELY(cfg_.journal == nullptr)) return;
  cfg_.journal->on_alloc_mark(tid, value);
}

void PmemPool::mark_store(std::size_t word) {
  if (!cfg_.track_store_order) return;
  const std::size_t line = line_of(word);
  const std::uint32_t stamp = line_clock_[line].fetch_add(1, std::memory_order_acq_rel) + 1;
  // A word is stored by one thread at a time (under its lock, or by its
  // owner), so this load and store do not race another mark of it.
  StoreWindow w = word_window_[word].load(std::memory_order_acquire);
  if (w.first <= line_fenced_[line].load(std::memory_order_acquire)) w.first = stamp;
  w.last = stamp;
  word_window_[word].store(w, std::memory_order_release);
}

void PmemPool::owe_store(int tid) {
  bump(flush_queues_[tid].debt_ns, cfg_.nvm_store_latency_ns);
}

void PmemPool::record_write(int tid, gaddr_t a, word_t old_val, word_t new_val,
                            std::uint64_t pver) {
  poll_crash(crash_coord_);
  // Trinity write order within the record's cache line: old, pver, cur.
  // x86 guarantees same-line stores never persist out of order, which the
  // crash adversary honours via per-line store stamps.
  const std::size_t base = record_word_base(a);  // record = 4 u64 words
  stage(tid, base + 1, old_val);
  stage(tid, base + 2, pver);
  stage(tid, base + 0, new_val);
  owe_store(tid);
}

bool PmemPool::enqueue_flush(int tid, std::size_t line) {
  FlushQueue& q = flush_queues_[tid];
  // O(1) enqueue-time dedup: a line already pending for this fence epoch
  // never enters the queue again, so fence() needs no sort+unique pass.
  // The request is still journalled and counted; only the coalesced
  // physical write-back disappears, which is what the dedup count
  // measures.
  const bool fresh = q.pending.insert(line);
  if (fresh)
    q.lines.push_back(line);
  else
    bump(q.dedups, 1);
  journal_flush(tid, line);
  bump(q.flushes, 1);
  telemetry::trace1(telemetry::EventKind::kFlushEnqueue, tid, line);
  return fresh;
}

void PmemPool::flush_record(int tid, gaddr_t a) {
  if (!flush_active()) return;
  poll_crash(crash_coord_);
  if (htm::in_hw_txn()) htm::abort_on_flush();
  enqueue_flush(tid, record_line_of(a));
}

void PmemPool::revert_record(int tid, gaddr_t a) {
  const std::size_t base = record_word_base(a);
  stage(tid, base + 0, staged_[base + 1].load(std::memory_order_acquire));
  owe_store(tid);
}

std::uint64_t PmemPool::load_pver(int tid) const {
  return staged_[pver_word(tid)].load(std::memory_order_acquire);
}

void PmemPool::store_pver(int tid, std::uint64_t v) {
  stage(tid, pver_word(tid), v);
  owe_store(tid);
}

void PmemPool::flush_pver(int tid) {
  if (!flush_active()) return;
  if (htm::in_hw_txn()) htm::abort_on_flush();
  enqueue_flush(tid, line_of(pver_word(tid)));
}

std::uint64_t PmemPool::load_root(int slot) const {
  return staged_[root_word(slot)].load(std::memory_order_acquire);
}

void PmemPool::store_root_persist(int tid, int slot, std::uint64_t v) {
  stage(tid, root_word(slot), v);
  owe_store(tid);
  if (flush_active()) enqueue_flush(tid, line_of(root_word(slot)));
  fence(tid);
}

std::size_t PmemPool::alloc_raw(std::size_t n) {
  // Line-align every raw allocation so independent allocations never share
  // a cache line (keeps flush sets disjoint across threads).
  const std::size_t padded = (n + kWordsPerLine - 1) / kWordsPerLine * kWordsPerLine;
  const std::size_t base = raw_bump_.fetch_add(padded, std::memory_order_acq_rel);
  if (base + padded > raw_space_words())
    throw TmLogicError("raw persistent region exhausted");
  return base;
}

std::uint64_t PmemPool::raw_load(std::size_t idx) const {
  return staged_[idx].load(std::memory_order_acquire);
}

std::uint64_t PmemPool::raw_load_durable(std::size_t idx) const {
  return durable_[idx].load(std::memory_order_acquire);
}

void PmemPool::raw_store(int tid, std::size_t idx, std::uint64_t v) {
  stage(tid, idx, v);
  owe_store(tid);
}

void PmemPool::flush_raw(int tid, std::size_t idx) {
  if (!flush_active()) return;
  if (htm::in_hw_txn()) htm::abort_on_flush();
  enqueue_flush(tid, line_of(idx));
}

void PmemPool::persist_line(std::size_t line) {
  if (cfg_.track_store_order)
    line_fenced_[line].store(line_clock_[line].load(std::memory_order_acquire),
                             std::memory_order_release);
  const std::size_t base = line * kWordsPerLine;
  for (std::size_t w = base; w < base + kWordsPerLine; ++w)
    durable_[w].store(staged_[w].load(std::memory_order_acquire), std::memory_order_release);
}

void PmemPool::fence(int tid) {
  FlushQueue& fq = flush_queues_[tid];
  auto& q = fq.lines;
  bool wrote_back = false;
  if (flush_active()) {
    poll_crash(crash_coord_);
    // The queue is duplicate-free by construction (enqueue_flush dedups in
    // O(1)), so fence cost is O(unique lines). Lines are written back in
    // enqueue order, which is load-bearing: a crash mid-fence persists a
    // queue-order prefix.
    if (!q.empty()) {
      journal_fence(tid);
      for (const std::size_t line : q) {
        // A power failure can strike between individual line write-backs,
        // so the random-trip tests must be able to crash mid-fence too,
        // leaving a partially persisted fence behind.
        poll_crash(crash_coord_);
        persist_line(line);
      }
      wrote_back = true;
    }
  }
  // One spin bills the whole model: the stores made since the previous
  // fence, then the write-backs. The caller's locks are held across both
  // either way, so paying store latency here rather than per store leaves
  // the lock-hold time unchanged.
  std::uint64_t ns = fq.debt_ns.load(std::memory_order_relaxed);
  if (wrote_back) ns += cfg_.flush_latency_ns * q.size() + cfg_.fence_latency_ns;
  if (ns != 0) {
    fq.debt_ns.store(0, std::memory_order_relaxed);
    bump(fq.billed_ns, ns);
    spin_ticks(ns, ticks_per_ns_);
  }
  if (!wrote_back) return;
  bump(fq.fences, 1);
  fq.fence_lines.record(q.size());
  telemetry::trace1(telemetry::EventKind::kFence, tid, q.size());
  q.clear();
  fq.pending.clear();
}

std::uint64_t PmemPool::image_hash() const {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  for (std::size_t i = 0; i < cfg_.capacity_words; ++i)
    mix(vmem_[i].load(std::memory_order_acquire));
  const std::size_t words = persist_space_words();
  for (std::size_t i = 0; i < words; ++i) mix(staged_[i].load(std::memory_order_acquire));
  for (std::size_t i = 0; i < words; ++i) mix(durable_[i].load(std::memory_order_acquire));
  return h;
}

std::uint64_t PmemPool::sum_counter(std::atomic<std::uint64_t> FlushQueue::*counter) const {
  std::uint64_t total = 0;
  for (int t = 0; t < kMaxThreads; ++t)
    total += (flush_queues_[t].*counter).load(std::memory_order_relaxed);
  return total;
}

std::array<const void*, 3> PmemPool::image_bases() const {
  return {vmem_.get(), staged_.get(), durable_};
}

telemetry::PowHistogram PmemPool::fence_flush_hist() const {
  telemetry::PowHistogram h;
  for (int t = 0; t < kMaxThreads; ++t) h.add(flush_queues_[t].fence_lines);
  return h;
}

void PmemPool::clear_volatile() {
  for (std::size_t i = 0; i < cfg_.capacity_words; ++i)
    vmem_[i].store(0, std::memory_order_relaxed);
}

void PmemPool::lose_power() {
  // The caches (the staged image) and DRAM (the volatile image) are gone:
  // recovery observes exactly the durable image.
  for (std::size_t i = 0, n = persist_space_words(); i < n; ++i)
    staged_[i].store(durable_[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  // Every line is now clean up to its last stamp, which empties every
  // word's store window.
  if (cfg_.track_store_order) {
    for (std::size_t line = 0; line < total_lines_; ++line)
      line_fenced_[line].store(line_clock_[line].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  }
  for (int t = 0; t < kMaxThreads; ++t) {
    flush_queues_[t].lines.clear();
    flush_queues_[t].pending.clear();
  }
  clear_volatile();
}

void PmemPool::install_crash_image(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> words) {
  for (std::size_t i = 0, n = persist_space_words(); i < n; ++i)
    durable_[i].store(0, std::memory_order_relaxed);
  for (const auto& [word, value] : words) {
    if (word >= persist_space_words()) throw TmLogicError("crash image word out of range");
    durable_[word].store(value, std::memory_order_relaxed);
  }
  lose_power();
}

void PmemPool::persist_line_prefix(std::size_t line, Xoshiro256& rng) {
  if (!cfg_.track_store_order) {
    persist_line(line);
    return;
  }
  // x86 persists same-line stores in order: the adversary picks a cut point
  // in this line's store sequence; stores up to the cut land, later ones
  // are lost with the caches.
  const std::uint32_t clk = line_clock_[line].load(std::memory_order_acquire);
  const std::uint32_t fenced = line_fenced_[line].load(std::memory_order_acquire);
  if (clk <= fenced) return;
  std::uint32_t cut = fenced + static_cast<std::uint32_t>(rng.next_bounded(clk - fenced + 1));
  // A cut inside a word's window (between two of its stores) would persist
  // the earlier stores of the line with that word's earlier value, which
  // the staged image no longer holds. Lower the cut below every window it
  // splits; lowering it can split another, so repeat until none is split.
  const std::size_t base = line * kWordsPerLine;
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t w = base; w < base + kWordsPerLine; ++w) {
      const StoreWindow win = word_window_[w].load(std::memory_order_acquire);
      if (win.first > fenced && win.first <= cut && cut < win.last) {
        cut = win.first - 1;
        moved = true;
      }
    }
  }
  for (std::size_t w = base; w < base + kWordsPerLine; ++w) {
    const StoreWindow win = word_window_[w].load(std::memory_order_acquire);
    if (win.first > fenced && win.last <= cut)
      durable_[w].store(staged_[w].load(std::memory_order_acquire), std::memory_order_release);
  }
  // Whatever landed is now the durable frontier of this line.
  if (cut > fenced) line_fenced_[line].store(cut, std::memory_order_release);
}

void PmemPool::crash(const CrashPolicy& policy) {
  Xoshiro256 rng(policy.seed);
  if (cfg_.eadr) {
    // eADR: the power-failure protection domain flushes the whole cache;
    // every staged store is durable.
    for (std::size_t line = 0; line < total_lines_; ++line) persist_line(line);
  }
  // Spontaneous write-back: any dirty line may have (partially) persisted.
  for (std::size_t line = 0; line < total_lines_; ++line) {
    bool dirty = false;
    if (cfg_.track_store_order) {
      dirty = line_clock_[line].load(std::memory_order_acquire) >
              line_fenced_[line].load(std::memory_order_acquire);
    } else {
      const std::size_t base = line * kWordsPerLine;
      for (std::size_t w = base; w < base + kWordsPerLine && !dirty; ++w)
        dirty = staged_[w].load(std::memory_order_acquire) !=
                durable_[w].load(std::memory_order_acquire);
    }
    if (dirty && rng.next_bool(policy.writeback_probability)) persist_line_prefix(line, rng);
  }
  lose_power();
}

}  // namespace nvhalt
