// Transactional skiplist. A second ordered map (beyond the (a,b)-tree)
// with a very different transaction profile: towers of pointers instead of
// wide nodes, so transactions read long pointer chains (O(log n) nodes,
// each a separate cache line) and writes touch a variable number of
// predecessor towers. Useful for stressing read-set growth on the software
// path and read instrumentation on the hardware path.
#pragma once

#include <string>
#include <vector>

#include "api/tm.hpp"
#include "util/rng.hpp"

namespace nvhalt {

class TmSkipList {
 public:
  static constexpr std::size_t kMaxLevel = 12;

  /// Creates an empty skiplist rooted at pool root slot `root_slot`.
  TmSkipList(TransactionalMemory& tm, int root_slot = 8, std::uint64_t seed = 0xD1CE);

  /// Attaches to an existing skiplist (post-recovery).
  static TmSkipList attach(TransactionalMemory& tm, int root_slot = 8,
                           std::uint64_t seed = 0xD1CE);

  bool insert(int tid, word_t key, word_t val);
  bool remove(int tid, word_t key);
  bool contains(int tid, word_t key, word_t* out = nullptr);

  bool insert_in(Tx& tx, int tid, word_t key, word_t val);
  bool remove_in(Tx& tx, word_t key);
  bool contains_in(Tx& tx, word_t key, word_t* out = nullptr);

  std::size_t size_slow() const;
  /// Checks level-0 ordering and that every level is a sublist of the
  /// level below.
  bool validate_slow(std::string* why = nullptr) const;
  std::vector<word_t> keys_slow() const;
  std::vector<LiveBlock> collect_live_blocks() const;

 private:
  TmSkipList(TransactionalMemory& tm, int root_slot, std::uint64_t seed, bool attach);

  // Node layout: [key][val][height][next_0 .. next_{height-1}].
  static constexpr std::size_t kKey = 0;
  static constexpr std::size_t kVal = 1;
  static constexpr std::size_t kHeight = 2;
  static constexpr std::size_t kNext = 3;
  static std::size_t node_words(std::size_t height) { return kNext + height; }

  /// Geometric tower height in [1, kMaxLevel] (p = 1/2), per-thread RNG.
  std::size_t random_height(int tid);

  TransactionalMemory& tm_;
  int root_slot_;
  gaddr_t head_;  // sentinel node of height kMaxLevel
  struct alignas(kCacheLineBytes) PerThreadRng {
    Xoshiro256 rng;
  };
  std::vector<PerThreadRng> rngs_;
};

}  // namespace nvhalt
