// Output checks that run beside the clients without serialising them.
//
// Each client owns a Ledger and checks its own results as they arrive:
//  * every found value equals its key (the benchmark stores (k, k));
//  * a scan is sorted, inside its bounds, and every value equals its key;
//  * per key, successful inserts minus successful removes are tallied.
// At quiescent points the ledgers are merged against the structure's actual
// key set: initial presence + net tally must equal final presence, and after
// a crash the recovered set must equal the pre-crash set. Every violation
// counts as one failed op.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using KeySet = std::vector<std::uint8_t>;  // presence per key, index = key

class Ledger {
 public:
  explicit Ledger(std::uint32_t keys) : delta_(keys + 1, 0) {}

  void lookup(std::uint32_t key, bool found, std::uint64_t value) {
    if (found && value != key) fail("lookup of key " + std::to_string(key) + " returned value " +
                                    std::to_string(value));
  }
  void update(std::uint32_t key, bool insert, bool succeeded) {
    if (succeeded) delta_[key] += insert ? 1 : -1;
  }
  void scan(std::uint64_t lo, std::uint64_t hi,
            const std::vector<std::pair<std::uint64_t, std::uint64_t>>& out);

  std::uint64_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_; }
  void fail(const std::string& why) {
    if (violations_++ == 0) first_ = why;
  }

  std::vector<std::int32_t>& delta() { return delta_; }

 private:
  std::vector<std::int32_t> delta_;
  std::uint64_t violations_ = 0;
  std::string first_;
};

/// Conservation: `initial` + the ledgers' net tallies must equal `actual`.
/// Counts one violation per mismatching key into `sink`, then rebases
/// (zeroes every tally) so the next interval is checked on its own.
void check_conservation(const KeySet& initial, std::span<Ledger*> ledgers, const KeySet& actual,
                        Ledger& sink);

/// Recovery: the recovered key set must equal the pre-crash one.
void check_same_set(const KeySet& before, const KeySet& after, Ledger& sink);

/// Planted-fault self-test: feeds each check one corrupted result (and the
/// matching clean one) and returns true only if every corruption is
/// reported exactly once and no clean input is. `report` receives one line
/// per planted fault.
bool checker_self_test(std::string* report);

}  // namespace perfbench
