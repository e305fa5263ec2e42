#pragma once
// Data prefetching (paper §2.1, Fig. 13 lines 7-8 and 12).
//
// Two insertion points mirror the paper's GEMM kernel:
//  * before each innermost loop, the store targets of the *enclosing* body
//    (the C tile cursors) are prefetched so the tile is resident by the
//    time the accumulator loop finishes;
//  * at the top of each innermost loop body, the streamed arrays (the A/B
//    panel cursors) are prefetched `distance` elements ahead.

#include "ir/kernel.hpp"

namespace augem::transform {

struct PrefetchConfig {
  bool enabled = true;
  /// Elements ahead for streamed (loaded) arrays in innermost loops.
  int distance = 16;
};

/// Inserts prefetch statements per `config`. No-op when disabled.
void insert_prefetch(ir::Kernel& kernel, const PrefetchConfig& config = {});

}  // namespace augem::transform
