#include "api/tm_factory.hpp"

namespace nvhalt {

const char* tm_kind_name(TmKind k) {
  switch (k) {
    case TmKind::kNvHalt: return "NV-HALT";
    case TmKind::kNvHaltCl: return "NV-HALT-CL";
    case TmKind::kNvHaltSp: return "NV-HALT-SP";
    case TmKind::kTrinity: return "Trinity";
    case TmKind::kSpht: return "SPHT";
  }
  return "?";
}

TmKind tm_kind_from_string(const std::string& s) {
  if (s == "NV-HALT" || s == "nvhalt") return TmKind::kNvHalt;
  if (s == "NV-HALT-CL" || s == "nvhalt-cl") return TmKind::kNvHaltCl;
  if (s == "NV-HALT-SP" || s == "nvhalt-sp") return TmKind::kNvHaltSp;
  if (s == "Trinity" || s == "trinity") return TmKind::kTrinity;
  if (s == "SPHT" || s == "spht") return TmKind::kSpht;
  throw TmLogicError("unknown TM kind: " + s);
}

TmRunner::TmRunner(const RunnerConfig& cfg) : cfg_(cfg) {
  pool_ = std::make_unique<PmemPool>(cfg_.pmem);
  htm_ = std::make_unique<htm::SimHtm>(cfg_.htm);
  alloc_ = std::make_unique<TxAllocator>(*pool_);

  switch (cfg_.kind) {
    case TmKind::kNvHalt:
    case TmKind::kNvHaltCl:
    case TmKind::kNvHaltSp:
      tm_ = std::make_unique<NvHaltTm>(cfg_.kind, cfg_.nvhalt, *pool_, *htm_, *alloc_);
      break;
    case TmKind::kTrinity:
      tm_ = std::make_unique<TrinityTm>(cfg_.trinity, *pool_, *alloc_);
      break;
    case TmKind::kSpht:
      tm_ = std::make_unique<SphtTm>(cfg_.spht, *pool_, *htm_, *alloc_);
      break;
  }
}

TmRunner::~TmRunner() = default;

}  // namespace nvhalt
