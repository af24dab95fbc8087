// Hardware-transaction statistics: one record per thread, summed for
// reporting.
#pragma once

#include <array>
#include <cstdint>

#include "htm/htm_types.hpp"
#include "util/common.hpp"

namespace nvhalt::htm {

struct HtmStats {
  std::uint64_t begins = 0;
  std::uint64_t commits = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(AbortCause::kNumCauses)> aborts{};

  void add(const HtmStats& o) {
    begins += o.begins;
    commits += o.commits;
    for (std::size_t i = 0; i < aborts.size(); ++i) aborts[i] += o.aborts[i];
  }

  void reset() { *this = HtmStats{}; }
};

}  // namespace nvhalt::htm
