#include "support/scratch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "support/error.hpp"

namespace augem {
namespace {

TEST(Scratch, ReusesAllocationAcrossCalls) {
  double* first = scratch_doubles(128, Scratch::kGemmPackA);
  first[0] = 1.0;
  first[127] = 2.0;
  // Same or smaller request on the same slot returns the cached buffer.
  EXPECT_EQ(scratch_doubles(128, Scratch::kGemmPackA), first);
  EXPECT_EQ(scratch_doubles(16, Scratch::kGemmPackA), first);
}

TEST(Scratch, SlotsAreIndependent) {
  double* a = scratch_doubles(64, Scratch::kGemmPackA);
  double* b = scratch_doubles(64, Scratch::kGemmPackB);
  EXPECT_NE(a, b);
}

TEST(Scratch, IsCacheLineAligned) {
  const double* p = scratch_doubles(8, Scratch::kGemmPadC);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

TEST(Scratch, PerThreadBuffersAreDistinct) {
  double* mine = scratch_doubles(32, Scratch::kGemmPadA);
  double* theirs = nullptr;
  std::thread other([&] { theirs = scratch_doubles(32, Scratch::kGemmPadA); });
  other.join();
  EXPECT_NE(mine, theirs);
}

TEST(ScratchLease, HoldsAndReleasesSlot) {
  {
    ScratchLease lease(64, Scratch::kLevel3TmpA);
    ASSERT_NE(lease.data(), nullptr);
    lease.data()[0] = 1.0;
    lease.data()[63] = 2.0;
    // A *different* slot is still freely available while this one is held.
    ScratchLease other(16, Scratch::kLevel3PackB);
    EXPECT_NE(other.data(), lease.data());
  }
  // Both released: re-acquiring must succeed.
  ScratchLease again(64, Scratch::kLevel3TmpA);
  EXPECT_NE(again.data(), nullptr);
}

TEST(ScratchLease, DebugGuardRejectsAcquireWhileHeld) {
  if (!scratch_guard_enabled())
    GTEST_SKIP() << "live-slot accounting compiled out (NDEBUG)";
  ScratchLease held(32, Scratch::kLevel3PackB);
  // Nested lease of the held slot would alias (or, worse, grow and
  // invalidate) the buffer the outer holder points into.
  EXPECT_THROW(ScratchLease(8, Scratch::kLevel3PackB), augem::Error);
  // A raw scratch_doubles on the held slot is the same hazard.
  EXPECT_THROW(scratch_doubles(1024, Scratch::kLevel3PackB), augem::Error);
}

TEST(ScratchLease, GuardIsPerThread) {
  if (!scratch_guard_enabled())
    GTEST_SKIP() << "live-slot accounting compiled out (NDEBUG)";
  ScratchLease held(32, Scratch::kLevel3PackB);
  bool other_thread_ok = false;
  std::thread other([&] {
    // The slot is only leased on *this* thread; workers keep their own.
    ScratchLease mine(32, Scratch::kLevel3PackB);
    other_thread_ok = mine.data() != nullptr && mine.data() != held.data();
  });
  other.join();
  EXPECT_TRUE(other_thread_ok);
}

}  // namespace
}  // namespace augem
