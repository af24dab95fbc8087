// Quickstart: create an NV-HALT system, run a few durable transactions,
// inspect statistics. Start here.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "api/tm_factory.hpp"

using namespace nvhalt;

int main() {
  // 1. Configure the system: a persistent pool (simulated NVM), the HTM
  //    fast-path simulator, and the NV-HALT TM itself.
  RunnerConfig cfg;
  cfg.kind = TmKind::kNvHalt;          // also: kNvHaltCl, kNvHaltSp, kTrinity, kSpht
  cfg.pmem.capacity_words = 1 << 20;   // 8 MiB of transactional words
  TmRunner runner(cfg);
  TransactionalMemory& tm = runner.tm();

  // 2. Allocate transactional memory. Word 0 is the null address; every
  //    address is a 64-bit word in the persistent pool.
  const gaddr_t counter = runner.alloc().raw_alloc(/*tid=*/0, /*nwords=*/1);
  const gaddr_t pair = runner.alloc().raw_alloc(0, 2);

  // 3. Run transactions. The body may be retried on conflicts; it sees a
  //    consistent snapshot (opacity) and its effects are durable once
  //    run() returns true (durable linearizability).
  const int tid = 0;  // dense thread id in [0, kMaxThreads)
  for (int i = 0; i < 10; ++i) {
    tm.run(tid, [&](Tx& tx) { tx.write(counter, tx.read(counter) + 1); });
  }

  // Multi-word transactions are atomic, both in memory and on "NVM".
  tm.run(tid, [&](Tx& tx) {
    tx.write(pair + 0, 123);
    tx.write(pair + 1, 456);
  });

  // Voluntary aborts leave no trace.
  const bool committed = tm.run(tid, [&](Tx& tx) {
    tx.write(counter, 999);
    tx.abort();  // never mind!
  });

  // Read-only transactions pass the TxMode::kReadOnly hint, which sends
  // them to NV-HALT's read-only engine (no locks, no NVM traffic). Without
  // the hint a transaction takes the general path, however little it does.
  word_t value = 0;
  tm.run(tid, TxMode::kReadOnly, [&](Tx& tx) { value = tx.read(counter); });
  std::printf("counter = %llu (aborted txn committed: %s)\n",
              static_cast<unsigned long long>(value), committed ? "yes" : "no");

  // 4. Statistics: how many transactions ran on each path.
  const TmStats s = tm.stats();
  std::printf("%s: %llu commits (%llu hw, %llu sw, %llu ro), %llu hw aborts, %llu fallbacks\n",
              tm.name(), static_cast<unsigned long long>(s.commits),
              static_cast<unsigned long long>(s.hw_commits),
              static_cast<unsigned long long>(s.sw_commits),
              static_cast<unsigned long long>(s.ro_commits),
              static_cast<unsigned long long>(s.hw_aborts),
              static_cast<unsigned long long>(s.fallbacks));
  return value == 10 && !committed ? 0 : 1;
}
