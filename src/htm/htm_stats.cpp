#include "htm/htm_types.hpp"

namespace nvhalt::htm {

const char* abort_cause_name(AbortCause c) {
  switch (c) {
    case AbortCause::kConflict: return "conflict";
    case AbortCause::kCapacity: return "capacity";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kSpurious: return "spurious";
    case AbortCause::kFlush: return "flush";
    default: return "unknown";
  }
}

}  // namespace nvhalt::htm
