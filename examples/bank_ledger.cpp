// A concurrent durable bank ledger: the canonical TM workload.
//
// N threads transfer money between accounts while auditors verify, inside
// transactions, that the total balance is conserved — demonstrating
// opacity (auditors never see a torn transfer) and multi-word atomicity.
// Run with a TM name to compare systems:
//
//   $ ./examples/bank_ledger            # NV-HALT
//   $ ./examples/bank_ledger SPHT
//   $ ./examples/bank_ledger Trinity
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/tm_factory.hpp"
#include "util/rng.hpp"

using namespace nvhalt;

int main(int argc, char** argv) {
  RunnerConfig cfg;
  cfg.kind = argc > 1 ? tm_kind_from_string(argv[1]) : TmKind::kNvHalt;
  cfg.pmem.capacity_words = 1 << 20;
  TmRunner runner(cfg);
  TransactionalMemory& tm = runner.tm();

  constexpr std::size_t kAccounts = 256;
  constexpr word_t kInitialBalance = 1000;
  constexpr word_t kTotal = kAccounts * kInitialBalance;
  const gaddr_t accounts = runner.alloc().raw_alloc_large(kAccounts);

  // Seed the ledger in one durable transaction.
  tm.run(0, [&](Tx& tx) {
    for (std::size_t i = 0; i < kAccounts; ++i) tx.write(accounts + i, kInitialBalance);
  });

  constexpr int kTellers = 3;
  constexpr int kTransfersPerTeller = 2000;
  std::atomic<std::uint64_t> audits{0}, audit_failures{0}, rejected{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kTellers; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) * 7 + 1);
      for (int i = 0; i < kTransfersPerTeller; ++i) {
        const gaddr_t from = accounts + rng.next_bounded(kAccounts);
        const gaddr_t to = accounts + rng.next_bounded(kAccounts);
        const word_t amount = 1 + rng.next_bounded(50);
        const bool ok = tm.run(t, [&](Tx& tx) {
          const word_t balance = tx.read(from);
          if (balance < amount) tx.abort();  // insufficient funds
          tx.write(from, balance - amount);
          tx.write(to, tx.read(to) + amount);
        });
        if (!ok) rejected.fetch_add(1);
      }
    });
  }
  // Auditor thread: full-ledger sums inside transactions.
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      word_t sum = 0;
      tm.run(kTellers, TxMode::kReadOnly, [&](Tx& tx) {
        sum = 0;
        for (std::size_t a = 0; a < kAccounts; ++a) sum += tx.read(accounts + a);
      });
      audits.fetch_add(1);
      if (sum != kTotal) audit_failures.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();

  word_t final_total = 0;
  tm.run(0, TxMode::kReadOnly, [&](Tx& tx) {
    final_total = 0;  // body may be re-executed on abort
    for (std::size_t a = 0; a < kAccounts; ++a) final_total += tx.read(accounts + a);
  });

  const TmStats s = tm.stats();
  std::printf("%s ledger: %d transfers/teller x %d tellers, %llu rejected (insufficient)\n",
              tm.name(), kTransfersPerTeller, kTellers,
              static_cast<unsigned long long>(rejected.load()));
  std::printf("audits: %llu, inconsistent snapshots observed: %llu\n",
              static_cast<unsigned long long>(audits.load()),
              static_cast<unsigned long long>(audit_failures.load()));
  std::printf("final total: %llu (expected %llu)\n",
              static_cast<unsigned long long>(final_total),
              static_cast<unsigned long long>(kTotal));
  std::printf("paths: %llu hw commits, %llu sw commits, %llu ro commits, %llu hw aborts\n",
              static_cast<unsigned long long>(s.hw_commits),
              static_cast<unsigned long long>(s.sw_commits),
              static_cast<unsigned long long>(s.ro_commits),
              static_cast<unsigned long long>(s.hw_aborts));
  return (final_total == kTotal && audit_failures.load() == 0) ? 0 : 1;
}
