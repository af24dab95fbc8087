#include "checker.hpp"

#include <functional>

namespace perfbench {

void Ledger::scan(std::uint64_t lo, std::uint64_t hi,
                  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto [k, v] = out[i];
    if (k < lo || k > hi) {
      fail("scan [" + std::to_string(lo) + "," + std::to_string(hi) + "] returned key " +
           std::to_string(k));
      return;
    }
    if (i > 0 && k <= out[i - 1].first) {
      fail("scan [" + std::to_string(lo) + "," + std::to_string(hi) + "] is not sorted at key " +
           std::to_string(k));
      return;
    }
    if (v != k) {
      fail("scan returned value " + std::to_string(v) + " for key " + std::to_string(k));
      return;
    }
  }
}

void check_conservation(const KeySet& initial, std::span<Ledger*> ledgers, const KeySet& actual,
                        Ledger& sink) {
  for (std::size_t k = 1; k < initial.size(); ++k) {
    std::int64_t net = 0;
    for (Ledger* l : ledgers) {
      net += l->delta()[k];
      l->delta()[k] = 0;
    }
    if (initial[k] + net != actual[k])
      sink.fail("key " + std::to_string(k) + ": initial " + std::to_string(initial[k]) +
                " + net updates " + std::to_string(net) + " != final " +
                std::to_string(actual[k]));
  }
}

void check_same_set(const KeySet& before, const KeySet& after, Ledger& sink) {
  for (std::size_t k = 1; k < before.size(); ++k)
    if (before[k] != after[k])
      sink.fail("key " + std::to_string(k) + (before[k] != 0 ? " lost" : " appeared") +
                " across crash and recovery");
}

bool checker_self_test(std::string* report) {
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  struct Case {
    const char* name;
    std::function<void(Ledger&)> clean;
    std::function<void(Ledger&)> planted;
  };
  const KeySet initial = {0, 1, 0, 1, 0};
  const Case cases[] = {
      {"lookup value != key", [](Ledger& l) { l.lookup(3, true, 3); },
       [](Ledger& l) { l.lookup(3, true, 4); }},
      {"scan out of range", [](Ledger& l) { l.scan(2, 4, Pairs{{2, 2}, {4, 4}}); },
       [](Ledger& l) { l.scan(2, 4, Pairs{{2, 2}, {5, 5}}); }},
      {"scan unsorted", [](Ledger& l) { l.scan(1, 4, Pairs{{1, 1}, {3, 3}}); },
       [](Ledger& l) { l.scan(1, 4, Pairs{{3, 3}, {1, 1}}); }},
      {"scan value != key", [](Ledger& l) { l.scan(1, 4, Pairs{{1, 1}}); },
       [](Ledger& l) { l.scan(1, 4, Pairs{{1, 7}}); }},
      {"lost update",
       [&](Ledger& l) {
         Ledger client(4);
         client.update(2, true, true);
         Ledger* ls[] = {&client};
         check_conservation(initial, ls, KeySet{0, 1, 1, 1, 0}, l);
       },
       [&](Ledger& l) {
         Ledger client(4);
         client.update(2, true, true);
         Ledger* ls[] = {&client};
         check_conservation(initial, ls, initial, l);
       }},
      {"key lost in recovery", [&](Ledger& l) { check_same_set(initial, initial, l); },
       [&](Ledger& l) { check_same_set(initial, KeySet{0, 1, 0, 0, 0}, l); }},
  };
  bool ok = true;
  for (const Case& c : cases) {
    Ledger clean(4), planted(4);
    c.clean(clean);
    c.planted(planted);
    const bool caught = clean.violations() == 0 && planted.violations() == 1;
    ok = ok && caught;
    if (report != nullptr)
      *report += std::string(caught ? "caught  " : "MISSED  ") + c.name + ": " +
                 (planted.violations() != 0 ? planted.first_violation() : "not reported") + "\n";
  }
  return ok;
}

}  // namespace perfbench
