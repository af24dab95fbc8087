// Shared harness for the crash-prefix enumeration checker: a mixed
// multi-threaded workload whose persistence trace is journaled, and a
// verifier that installs any materialized crash image, runs recovery and
// checks durable-linearizability invariants:
//
//   * zero-sum conservation — raw account slots and hashmap-backed account
//     values are only ever moved between, never created or destroyed, so
//     any torn (partially recovered) transaction breaks the sum;
//   * atomicity — per-thread counter pairs (a == b always);
//   * durability — a transaction acknowledged at journal index B must be
//     reflected by every crash prefix >= B;
//   * no resurrection — values beyond the last attempt never appear.
//
// Before recovery it checks the premise recovery's bound rests on: no
// record at or past the image's own carved end (TxAllocator::carved_end)
// is nonzero, because the allocator fences its segment watermark before it
// hands out a slot of a fresh segment.
//
// Used by crash_enum_test.cpp (unit + acceptance cases) and the crash_sweep
// CLI tool the CI crash-sweep job runs. Trace bundles round-trip through a
// binary file so a CI failure triple can be replayed locally.
#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/tm_factory.hpp"
#include "pmem/checkpoint.hpp"
#include "pmem/crash_enum.hpp"
#include "structures/tm_hashmap.hpp"
#include "structures/tm_list.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/trace_io.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace nvhalt::test {

struct CrashHarnessOptions {
  TmKind kind = TmKind::kNvHalt;
  int transfer_threads = 3;  // zero-sum transfers over raw account slots
  int counter_threads = 3;   // monotonic (a, b) pair bumps with ack bounds
  int map_threads = 2;       // zero-sum transfers over hashmap values
  /// Delete-heavy churn over a sorted list (insert/remove 50/50). The
  /// hashmap's removes only mark nodes empty, so this is the worker that
  /// actually drives tx.free — allocator free intents and epoch
  /// reclamation get crash coverage only when it is enabled.
  int list_threads = 0;
  int txs_per_thread = 12;
  int accounts = 16;
  int map_accounts = 8;
  int list_keys = 12;
  word_t list_key_base = 9000;
  word_t initial_balance = 100;
  std::uint64_t workload_seed = 0xC0FFEE;

  /// When > 0, transfer thread 0 runs tm.checkpoint() after every N of its
  /// committed transactions, so the journal interleaves checkpoint
  /// truncation/compaction traffic with live commits — the crash-prefix
  /// enumerator then places boundaries inside those windows like anywhere
  /// else (including the torn-checkpoint window between the bitmap
  /// truncation and the generation store). Enables the TMs' checkpoint
  /// configuration, which changes the pool's raw layout; bundles record it
  /// so replays reconstruct the same geometry.
  int checkpoint_every = 0;

  /// When non-empty, the harness dumps observability artifacts after the
  /// workload quiesces (and before the runner is torn down): `trace_out`
  /// gets a raw nvhalt-trace-v1 file (meaningful only in NVHALT_TELEMETRY
  /// >= 1 builds — empty at level 0), `metrics_out` a MetricsRegistry JSON
  /// snapshot plus its Prometheus rendering at `<metrics_out>.prom`.
  std::string trace_out;
  std::string metrics_out;
};

/// One acknowledged commit: any crash prefix >= bound must reflect value.
struct AckPoint {
  std::size_t bound;
  word_t value;
};

/// Everything needed to re-verify any crash prefix of one workload run.
struct CrashTraceBundle {
  CrashHarnessOptions opt;
  std::vector<PersistEvent> events;
  std::uint64_t trace_hash = 0;
  std::vector<gaddr_t> accounts;
  std::vector<gaddr_t> counter_a, counter_b;
  std::vector<std::vector<AckPoint>> counter_acked;
  std::vector<word_t> counter_attempted;
  /// Journal index after every prefill commit (accounts endowed, map
  /// created and populated) was acknowledged.
  std::size_t prefill_bound = 0;
  word_t map_key_base = 5000;
};

/// Small, enumeration-friendly geometry: installing a materialized image
/// rewrites the whole persistent space, so the pool is kept compact.
inline RunnerConfig crash_config(TmKind kind, bool checkpoint = false) {
  RunnerConfig cfg;
  cfg.kind = kind;
  cfg.pmem.capacity_words = std::size_t{1} << 17;  // 8 allocator segments
  cfg.pmem.raw_words = std::size_t{1} << 16;  // SPHT logs + allocator metadata
  cfg.pmem.track_store_order = false;  // the journal records store order itself
  cfg.htm.stripe_count = std::size_t{1} << 10;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 10;
  cfg.trinity.lock_table_entries = std::size_t{1} << 10;
  cfg.spht.max_threads = 12;
  cfg.spht.log_words_per_thread = std::size_t{1} << 11;
  cfg.spht.replay_threads = 1;
  if (checkpoint) {
    // Checkpointing changes the raw layout (dirty-line bitmap + generation
    // word), so the workload runner and the verifier must agree on this
    // flag — the bundle records it. SPHT always compacts on checkpoint().
    cfg.nvhalt.checkpoint = true;
    cfg.trinity.checkpoint = true;
    cfg.pmem.raw_words +=
        CheckpointManager::metadata_words(cfg.pmem.capacity_words) + 2 * kWordsPerLine;
  }
  return cfg;
}

/// Runs the mixed workload with a journaling pool and returns the bundle.
/// The journal is installed at pool construction, so the trace covers the
/// whole lifetime (TM construction, prefill, workload) against a zero
/// initial durable image — exactly what materialize_crash_image() assumes.
inline CrashTraceBundle run_crash_workload(const CrashHarnessOptions& opt) {
  CrashTraceBundle tr;
  tr.opt = opt;

  // The process-wide trace buffer may hold rings from an earlier workload
  // in the same process; start the requested capture from a clean slate
  // (no workers are running yet, so the producer-quiescence contract holds).
  if (!opt.trace_out.empty()) telemetry::TraceBuffer::instance().clear();

  PersistJournal journal;
  RunnerConfig cfg = crash_config(opt.kind, opt.checkpoint_every > 0);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  auto& tm = runner.tm();

  for (int i = 0; i < opt.accounts; ++i) tr.accounts.push_back(runner.alloc().raw_alloc(0, 1));
  for (int c = 0; c < opt.counter_threads; ++c) {
    tr.counter_a.push_back(runner.alloc().raw_alloc(0, 1));
    tr.counter_b.push_back(runner.alloc().raw_alloc(0, 1));
  }
  tr.counter_acked.assign(static_cast<std::size_t>(opt.counter_threads), {});
  tr.counter_attempted.assign(static_cast<std::size_t>(opt.counter_threads), 0);

  // Prefill phase (sequential, before any worker): one atomic endowment of
  // every raw account, then the map with its durable root. Crash prefixes
  // inside this phase are enumerated too — the checker only requires the
  // prefill's atomicity there, full sums afterwards.
  tm.run(0, [&](Tx& tx) {
    for (const gaddr_t a : tr.accounts) tx.write(a, opt.initial_balance);
  });
  std::optional<TmHashMap> map;
  if (opt.map_threads > 0 && opt.map_accounts > 0) {
    map.emplace(tm, std::size_t{64});
    for (int i = 0; i < opt.map_accounts; ++i)
      map->insert(0, tr.map_key_base + static_cast<word_t>(i), opt.initial_balance);
  }
  std::optional<TmList> list;
  if (opt.list_threads > 0 && opt.list_keys > 0) {
    list.emplace(tm);
    for (int i = 0; i < opt.list_keys; i += 2) {
      const word_t k = opt.list_key_base + static_cast<word_t>(i);
      list->insert(0, k, k);
    }
  }
  tr.prefill_bound = journal.size();

  const int nthreads =
      opt.transfer_threads + opt.counter_threads + opt.map_threads + opt.list_threads;
  SpinBarrier barrier(nthreads);
  std::vector<std::thread> workers;
  int tid = 0;
  for (int t = 0; t < opt.transfer_threads; ++t, ++tid) {
    const bool checkpointer = t == 0 && opt.checkpoint_every > 0;
    workers.emplace_back([&, tid, checkpointer] {
      Xoshiro256 rng(opt.workload_seed * 31 + static_cast<std::uint64_t>(tid));
      barrier.arrive_and_wait();
      for (int i = 0; i < opt.txs_per_thread; ++i) {
        const std::size_t nacc = tr.accounts.size();
        const std::size_t from = rng.next_bounded(nacc);
        std::size_t to = rng.next_bounded(nacc - 1);
        if (to >= from) ++to;
        const word_t amt = 1 + rng.next_bounded(3);
        tm.run(tid, [&](Tx& tx) {
          const word_t vf = tx.read(tr.accounts[from]);
          const word_t vt = tx.read(tr.accounts[to]);
          if (vf >= amt) {
            tx.write(tr.accounts[from], vf - amt);
            tx.write(tr.accounts[to], vt + amt);
          }
        });
        // Checkpoint mid-workload while every other worker keeps
        // committing: the journal then carries truncation/compaction
        // traffic interleaved with live persist phases, and the enumerator
        // places crash boundaries inside those windows.
        if (checkpointer && (i + 1) % opt.checkpoint_every == 0) tm.checkpoint(tid);
      }
    });
  }
  for (int c = 0; c < opt.counter_threads; ++c, ++tid) {
    workers.emplace_back([&, c, tid] {
      barrier.arrive_and_wait();
      for (word_t i = 1; i <= static_cast<word_t>(opt.txs_per_thread); ++i) {
        tr.counter_attempted[static_cast<std::size_t>(c)] = i;
        const bool ok = tm.run(tid, [&](Tx& tx) {
          tx.write(tr.counter_a[static_cast<std::size_t>(c)], i);
          tx.write(tr.counter_b[static_cast<std::size_t>(c)], i);
        });
        // The durability bound: every journal event of this commit is
        // already recorded by the time run() returns.
        if (ok) tr.counter_acked[static_cast<std::size_t>(c)].push_back({journal.size(), i});
      }
    });
  }
  for (int m = 0; m < opt.map_threads; ++m, ++tid) {
    workers.emplace_back([&, tid] {
      Xoshiro256 rng(opt.workload_seed * 131 + static_cast<std::uint64_t>(tid));
      barrier.arrive_and_wait();
      if (!map) return;
      for (int i = 0; i < opt.txs_per_thread; ++i) {
        const word_t n = static_cast<word_t>(opt.map_accounts);
        const word_t k1 = tr.map_key_base + static_cast<word_t>(rng.next_bounded(n));
        word_t k2 = tr.map_key_base + static_cast<word_t>(rng.next_bounded(n - 1));
        if (k2 >= k1) ++k2;
        const word_t amt = 1 + rng.next_bounded(3);
        tm.run(tid, [&](Tx& tx) {
          word_t v1 = 0, v2 = 0;
          if (!map->contains_in(tx, k1, &v1) || !map->contains_in(tx, k2, &v2)) return;
          if (v1 < amt) return;
          // Value update = remove + reinsert (reuses the empty-marked node
          // in place), keeping the per-key sum zero-sum across the map.
          map->remove_in(tx, k1);
          map->insert_in(tx, k1, v1 - amt);
          map->remove_in(tx, k2);
          map->insert_in(tx, k2, v2 + amt);
        });
      }
    });
  }
  for (int l = 0; l < opt.list_threads; ++l, ++tid) {
    workers.emplace_back([&, tid] {
      Xoshiro256 rng(opt.workload_seed * 977 + static_cast<std::uint64_t>(tid));
      barrier.arrive_and_wait();
      if (!list) return;
      for (int i = 0; i < opt.txs_per_thread; ++i) {
        // Delete-heavy churn: every committed remove frees its node through
        // the transactional allocator (free intent armed at commit, retire
        // into epoch limbo), every insert allocates one back. Values always
        // equal keys so a torn node write is directly observable.
        const word_t key =
            opt.list_key_base + static_cast<word_t>(rng.next_bounded(
                                    static_cast<std::uint64_t>(opt.list_keys)));
        if (rng.next_bounded(2) == 0) {
          list->insert(tid, key, key);
        } else {
          list->remove(tid, key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  if (!opt.trace_out.empty()) {
    const telemetry::TraceDump dump = telemetry::collect_trace_dump();
    if (!telemetry::write_raw_trace_file(opt.trace_out, dump))
      throw TmLogicError("cannot write trace file: " + opt.trace_out);
  }
  if (!opt.metrics_out.empty()) {
    telemetry::MetricsRegistry reg;
    reg.add_tm(tm);
    reg.add_pool(runner.pool());
    reg.add_alloc(runner.alloc());
    const telemetry::MetricsSnapshot snap = reg.snapshot();
    std::ofstream jf(opt.metrics_out);
    jf << snap.to_json() << "\n";
    std::ofstream pf(opt.metrics_out + ".prom");
    pf << snap.to_prometheus();
    if (!jf || !pf)
      throw TmLogicError("cannot write metrics files: " + opt.metrics_out);
  }

  tr.events = journal.events();
  tr.trace_hash = PersistJournal::hash(tr.events);
  return tr;
}

/// Installs materialized crash images into a dedicated runner (constructed
/// with the exact workload configuration, so persistent-layout allocations
/// line up), runs recovery and checks the harness invariants. Reused across
/// images: install_crash_image + recover_data fully reset pool and TM.
class CrashImageVerifier {
 public:
  /// `recovery_skip_nth_revert` forwards to the NV-HALT recovery fault
  /// injection knob (mutation testing); -1 = intact recovery.
  explicit CrashImageVerifier(const CrashTraceBundle& tr, int recovery_skip_nth_revert = -1)
      : tr_(tr), runner_(verifier_config(tr, recovery_skip_nth_revert)) {}

  CrashImageChecker checker() {
    return [this](const CrashImage& img, std::size_t prefix, std::uint64_t, std::string* why) {
      return check(img, prefix, why);
    };
  }

  bool check(const CrashImage& img, std::size_t prefix, std::string* why) {
    auto& tm = runner_.tm();
    auto& pool = runner_.pool();
    pool.install_crash_image(img.words);

    // ---- 0. Recovery's premise: nothing durable past the carved end ----
    // Recovery reads records only below the carved end, so a record there
    // would be lost. Records follow the raw space, four words each.
    const gaddr_t carved_end = runner_.alloc().carved_end();
    const std::uint64_t first_past = pool.record_word_base(carved_end);
    for (const auto& [word, value] : img.words) {
      if (word >= first_past && value != 0)
        return fail(why, prefix, "record of word ", (word - pool.raw_space_words()) / 4,
                    " durable at or past the carved end ", carved_end);
    }

    tm.recover_data();

    std::vector<LiveBlock> live;
    // Setup-phase raw allocations are eagerly durable (allocation bit +
    // fence before the address is handed out), so the durable bitmap says
    // exactly which of these blocks existed at this crash boundary —
    // earlier prefixes legitimately predate some of them.
    const auto add_if_allocated = [&](gaddr_t a) {
      if (runner_.alloc().slot_bit(a, 1)) live.push_back({a, 1});
    };
    for (const gaddr_t a : tr_.accounts) add_if_allocated(a);
    for (const gaddr_t a : tr_.counter_a) add_if_allocated(a);
    for (const gaddr_t a : tr_.counter_b) add_if_allocated(a);
    const bool map_used = tr_.opt.map_threads > 0 && tr_.opt.map_accounts > 0;
    const bool have_map = map_used && pool.load_root(0) != 0 && pool.load_root(1) != 0;
    std::optional<TmHashMap> map;
    if (have_map) {
      map.emplace(TmHashMap::attach(tm));
      const auto mb = map->collect_live_blocks();
      live.insert(live.end(), mb.begin(), mb.end());
    }
    const bool list_used = tr_.opt.list_threads > 0 && tr_.opt.list_keys > 0;
    const bool have_list = list_used && pool.load_root(4) != 0;
    std::optional<TmList> list;
    if (have_list) {
      list.emplace(TmList::attach(tm));
      const auto lb = list->collect_live_blocks();
      live.insert(live.end(), lb.begin(), lb.end());
    }
    tm.rebuild_allocator(live);

    // ---- 1. Raw-account conservation ----------------------------------
    const word_t full =
        static_cast<word_t>(tr_.opt.accounts) * tr_.opt.initial_balance;
    word_t sum = 0;
    bool any_nonzero = false;
    tm.run(0, [&](Tx& tx) {
      sum = 0;
      any_nonzero = false;  // the body may be re-executed
      for (const gaddr_t a : tr_.accounts) {
        const word_t v = tx.read(a);
        sum += v;
        any_nonzero |= v != 0;
      }
    });
    if (any_nonzero && sum != full)
      return fail(why, prefix, "account sum broken: torn transfer (sum=", sum, " expected=", full,
                  ")");
    if (!any_nonzero && prefix >= tr_.prefill_bound)
      return fail(why, prefix, "acknowledged prefill lost (all accounts zero)");

    // ---- 2. Counter pairs: atomic, durable, no resurrection -----------
    for (std::size_t c = 0; c < tr_.counter_a.size(); ++c) {
      word_t va = 0, vb = 0;
      tm.run(0, [&](Tx& tx) {
        va = tx.read(tr_.counter_a[c]);
        vb = tx.read(tr_.counter_b[c]);
      });
      if (va != vb)
        return fail(why, prefix, "counter ", c, " torn: a=", va, " b=", vb);
      word_t floor = 0;
      for (const AckPoint& p : tr_.counter_acked[c]) {
        if (p.bound <= prefix) floor = p.value;
      }
      if (va < floor)
        return fail(why, prefix, "counter ", c, " lost acked value ", floor, " (recovered ", va,
                    ")");
      if (va > tr_.counter_attempted[c])
        return fail(why, prefix, "counter ", c, " resurrected unattempted value ", va);
    }

    // ---- 3. Hashmap-account conservation ------------------------------
    if (prefix >= tr_.prefill_bound && map_used) {
      if (!have_map) return fail(why, prefix, "durably published hashmap root lost");
      word_t msum = 0;
      for (int i = 0; i < tr_.opt.map_accounts; ++i) {
        const word_t key = tr_.map_key_base + static_cast<word_t>(i);
        word_t v = 0;
        if (!map->contains(0, key, &v))
          return fail(why, prefix, "acked hashmap account ", key, " lost");
        msum += v;
      }
      const word_t mfull =
          static_cast<word_t>(tr_.opt.map_accounts) * tr_.opt.initial_balance;
      if (msum != mfull)
        return fail(why, prefix, "hashmap sum broken: torn transfer (sum=", msum,
                    " expected=", mfull, ")");
    } else if (have_map) {
      // Mid-prefill crash: transfers have not durably begun, so any
      // present account still carries its initial balance.
      for (int i = 0; i < tr_.opt.map_accounts; ++i) {
        const word_t key = tr_.map_key_base + static_cast<word_t>(i);
        word_t v = 0;
        if (map->contains(0, key, &v) && v != tr_.opt.initial_balance)
          return fail(why, prefix, "hashmap account ", key, " torn during prefill: ", v);
      }
    }

    // ---- 4. List nodes: untorn across delete-heavy churn --------------
    // Every node carries value == key from birth, and removes free whole
    // nodes, so any present key with a mismatched value means a torn node
    // write or a recycled-too-early block surviving recovery.
    if (have_list) {
      for (int i = 0; i < tr_.opt.list_keys; ++i) {
        const word_t key = tr_.opt.list_key_base + static_cast<word_t>(i);
        word_t v = 0;
        if (list->contains(0, key, &v) && v != key)
          return fail(why, prefix, "list node ", key, " torn: value=", v);
      }
    } else if (list_used && prefix >= tr_.prefill_bound) {
      return fail(why, prefix, "durably published list root lost");
    }
    return true;
  }

 private:
  static RunnerConfig verifier_config(const CrashTraceBundle& tr, int skip_nth) {
    RunnerConfig cfg = crash_config(tr.opt.kind, tr.opt.checkpoint_every > 0);
    cfg.nvhalt.recovery_skip_nth_revert = skip_nth;
    return cfg;
  }

  template <typename... Parts>
  static bool fail(std::string* why, std::size_t prefix, const Parts&... parts) {
    if (why != nullptr) {
      std::ostringstream os;
      os << "[prefix " << prefix << "] ";
      (os << ... << parts);
      *why = os.str();
    }
    return false;
  }

  const CrashTraceBundle& tr_;
  TmRunner runner_;
};

// ---- Bundle persistence (cross-process failure replay) -------------------

namespace detail {
// One layout. checkpoint_every is its only layout-affecting option (the
// verifier must rebuild the same raw geometry); a bundle of any other
// layout is rejected by name, not replayed under a geometry it was not
// recorded with.
inline constexpr std::uint64_t kBundleMagic = 0x4E56484243524236ULL;  // "NVHBCRB6"

inline void put_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline std::uint64_t get_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
}  // namespace detail

inline void save_bundle(const std::string& path, const CrashTraceBundle& tr) {
  using detail::put_u64;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw TmLogicError("cannot open bundle file for writing: " + path);
  put_u64(f, detail::kBundleMagic);
  put_u64(f, static_cast<std::uint64_t>(tr.opt.kind));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.transfer_threads));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.counter_threads));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.map_threads));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.list_threads));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.txs_per_thread));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.accounts));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.map_accounts));
  put_u64(f, static_cast<std::uint64_t>(tr.opt.list_keys));
  put_u64(f, tr.opt.list_key_base);
  put_u64(f, tr.opt.initial_balance);
  put_u64(f, tr.opt.workload_seed);
  put_u64(f, static_cast<std::uint64_t>(tr.opt.checkpoint_every));
  put_u64(f, tr.prefill_bound);
  put_u64(f, tr.map_key_base);
  const auto put_vec = [&f](const std::vector<gaddr_t>& v) {
    put_u64(f, v.size());
    for (const gaddr_t a : v) put_u64(f, a);
  };
  put_vec(tr.accounts);
  put_vec(tr.counter_a);
  put_vec(tr.counter_b);
  put_u64(f, tr.counter_acked.size());
  for (const auto& acks : tr.counter_acked) {
    put_u64(f, acks.size());
    for (const AckPoint& p : acks) {
      put_u64(f, p.bound);
      put_u64(f, p.value);
    }
  }
  put_u64(f, tr.counter_attempted.size());
  for (const word_t v : tr.counter_attempted) put_u64(f, v);
  put_u64(f, tr.events.size());
  for (const PersistEvent& ev : tr.events) {
    put_u64(f, static_cast<std::uint64_t>(ev.kind));
    put_u64(f, static_cast<std::uint64_t>(static_cast<std::uint32_t>(ev.tid)));
    put_u64(f, ev.line);
    put_u64(f, ev.word);
    put_u64(f, ev.value);
  }
  put_u64(f, tr.trace_hash);
  if (!f) throw TmLogicError("short write to bundle file: " + path);
}

inline CrashTraceBundle load_bundle(const std::string& path) {
  using detail::get_u64;
  std::ifstream f(path, std::ios::binary);
  if (!f) throw TmLogicError("cannot open bundle file: " + path);
  if (get_u64(f) != detail::kBundleMagic)
    throw TmLogicError("not a crash-trace bundle of the current layout (NVHBCRB6): " + path);
  CrashTraceBundle tr;
  tr.opt.kind = static_cast<TmKind>(get_u64(f));
  tr.opt.transfer_threads = static_cast<int>(get_u64(f));
  tr.opt.counter_threads = static_cast<int>(get_u64(f));
  tr.opt.map_threads = static_cast<int>(get_u64(f));
  tr.opt.list_threads = static_cast<int>(get_u64(f));
  tr.opt.txs_per_thread = static_cast<int>(get_u64(f));
  tr.opt.accounts = static_cast<int>(get_u64(f));
  tr.opt.map_accounts = static_cast<int>(get_u64(f));
  tr.opt.list_keys = static_cast<int>(get_u64(f));
  tr.opt.list_key_base = get_u64(f);
  tr.opt.initial_balance = get_u64(f);
  tr.opt.workload_seed = get_u64(f);
  tr.opt.checkpoint_every = static_cast<int>(get_u64(f));
  tr.prefill_bound = get_u64(f);
  tr.map_key_base = get_u64(f);
  const auto get_vec = [&f](std::vector<gaddr_t>& v) {
    v.resize(get_u64(f));
    for (auto& a : v) a = get_u64(f);
  };
  get_vec(tr.accounts);
  get_vec(tr.counter_a);
  get_vec(tr.counter_b);
  tr.counter_acked.resize(get_u64(f));
  for (auto& acks : tr.counter_acked) {
    acks.resize(get_u64(f));
    for (AckPoint& p : acks) {
      p.bound = get_u64(f);
      p.value = get_u64(f);
    }
  }
  tr.counter_attempted.resize(get_u64(f));
  for (auto& v : tr.counter_attempted) v = get_u64(f);
  tr.events.resize(get_u64(f));
  for (PersistEvent& ev : tr.events) {
    ev.kind = event_kind_from_u64(get_u64(f), path);
    ev.tid = static_cast<std::int32_t>(static_cast<std::uint32_t>(get_u64(f)));
    ev.line = get_u64(f);
    ev.word = get_u64(f);
    ev.value = get_u64(f);
  }
  tr.trace_hash = get_u64(f);
  if (!f) throw TmLogicError("truncated bundle file: " + path);
  if (tr.trace_hash != PersistJournal::hash(tr.events))
    throw TmLogicError("bundle trace hash mismatch (corrupt file): " + path);
  return tr;
}

}  // namespace nvhalt::test
