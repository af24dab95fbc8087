// Bundles a persistent pool, HTM simulator, allocator and one of the five
// evaluated TMs behind a single owner, so tests/benches/examples construct
// a complete system in one line.
#pragma once

#include <memory>
#include <string>

#include "api/tm.hpp"
#include "baselines/spht/spht_tm.hpp"
#include "baselines/trinity/trinity_tm.hpp"
#include "core/nvhalt_tm.hpp"

namespace nvhalt {

const char* tm_kind_name(TmKind k);
TmKind tm_kind_from_string(const std::string& s);

struct RunnerConfig {
  TmKind kind = TmKind::kNvHalt;
  PmemConfig pmem;
  htm::HtmConfig htm;
  NvHaltConfig nvhalt;      // used by the three NV-HALT kinds
  TrinityConfig trinity;    // used by kTrinity
  SphtConfig spht;          // used by kSpht
};

class TmRunner {
 public:
  explicit TmRunner(const RunnerConfig& cfg);
  ~TmRunner();

  TmRunner(const TmRunner&) = delete;
  TmRunner& operator=(const TmRunner&) = delete;

  TransactionalMemory& tm() { return *tm_; }
  PmemPool& pool() { return *pool_; }
  htm::SimHtm& htm() { return *htm_; }
  TxAllocator& alloc() { return *alloc_; }
  const RunnerConfig& config() const { return cfg_; }

 private:
  RunnerConfig cfg_;
  std::unique_ptr<PmemPool> pool_;
  std::unique_ptr<htm::SimHtm> htm_;
  std::unique_ptr<TxAllocator> alloc_;
  std::unique_ptr<TransactionalMemory> tm_;
};

}  // namespace nvhalt
