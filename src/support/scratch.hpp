#pragma once
// Per-thread scratch-buffer cache.
//
// The blocked GEMM driver needs packing panels on every call; allocating
// them with aligned_alloc each time puts the allocator on the hot path and,
// worse, serializes the parallel driver on the heap lock. Instead each
// thread keeps one grow-only aligned buffer per named slot, reused across
// calls for the lifetime of the thread (pool workers are persistent, so the
// steady state performs no allocation at all).
//
// Buffers are returned uninitialized: callers own the contents and must
// fully write what they read. Two live uses of the same slot on the same
// thread would alias — slots are named per call site to prevent that, and
// code that holds a slot across nested calls (the Level-3 engine holds its
// kLevel3* panels and temporary across the prepacked driver calls) takes a
// ScratchLease so debug builds catch any re-acquisition of a held slot.

#include <cstddef>

namespace augem {

/// Named scratch slots; each (thread, slot) pair is one cached buffer.
enum class Scratch : int {
  kGemmPackA,     ///< per-thread packed A block (mc×kc)
  kGemmPackB,     ///< shared packed B panel (kc×nc), owned by caller thread
  kGemmPadA,      ///< zero-padded edge-tile A copy (augem block kernel)
  kGemmPadB,      ///< zero-padded edge-tile B copy
  kGemmPadC,      ///< zero-padded edge-tile C accumulator
  kLevel3TmpA,    ///< Level-3 engine: diagonal block / B copy temporary
  kLevel3PackB,   ///< Level-3 engine: shared reusable packed panel
  kLevel3PackB2,  ///< Level-3 engine: second reusable packed panel (syr2k)
  kCount
};

/// Returns this thread's cached 64-byte-aligned buffer for `slot`, grown to
/// hold at least `count` doubles. The pointer stays valid until the next
/// larger request for the same slot on the same thread. In debug builds,
/// asserts the slot is not currently held by a live ScratchLease on this
/// thread (a grow would silently invalidate the lease's pointer).
double* scratch_doubles(std::size_t count, Scratch slot);

/// True when the debug live-slot accounting below is compiled in (!NDEBUG);
/// tests use this to skip the negative cases in release builds.
bool scratch_guard_enabled();

/// RAII ownership of a scratch slot for code that keeps the pointer live
/// across nested calls (e.g. a Level-3 diagonal temporary held across the
/// prepacked driver calls). Acquiring a slot that is already leased on this thread is
/// a programming error — the nested user would alias or reallocate the
/// held buffer — and asserts in debug builds.
class ScratchLease {
 public:
  ScratchLease(std::size_t count, Scratch slot);
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  double* data() const { return data_; }

 private:
  double* data_;
  Scratch slot_;
};

}  // namespace augem
