#include "support/arch.hpp"

#include <gtest/gtest.h>

namespace augem {
namespace {

TEST(Arch, IsaNamesAreStable) {
  EXPECT_STREQ(isa_name(Isa::kSse2), "SSE2");
  EXPECT_STREQ(isa_name(Isa::kAvx), "AVX");
  EXPECT_STREQ(isa_name(Isa::kFma3), "FMA3");
  EXPECT_STREQ(isa_name(Isa::kFma4), "FMA4");
}

TEST(Arch, VectorWidths) {
  EXPECT_EQ(isa_vector_doubles(Isa::kSse2), 2);
  EXPECT_EQ(isa_vector_doubles(Isa::kAvx), 4);
  EXPECT_EQ(isa_vector_doubles(Isa::kFma3), 4);
  EXPECT_EQ(isa_vector_doubles(Isa::kFma4), 4);
  EXPECT_EQ(isa_vector_bits(Isa::kSse2), 128);
  EXPECT_EQ(isa_vector_bits(Isa::kAvx), 256);
}

TEST(Arch, VexEncoding) {
  EXPECT_FALSE(isa_is_vex(Isa::kSse2));
  EXPECT_TRUE(isa_is_vex(Isa::kAvx));
  EXPECT_TRUE(isa_is_vex(Isa::kFma3));
  EXPECT_TRUE(isa_is_vex(Isa::kFma4));
}

TEST(Arch, HostDetectionIsSane) {
  const CpuArch& a = host_arch();
  EXPECT_TRUE(a.has_sse2);  // x86-64 baseline
  EXPECT_FALSE(a.name.empty());
  EXPECT_GT(a.l1d_bytes, 0);
  EXPECT_GT(a.l2_bytes, 0);
  // best_native_isa must itself be supported.
  EXPECT_TRUE(a.supports(a.best_native_isa()));
}

TEST(Arch, BrandStringStatesNominalFrequency) {
  EXPECT_DOUBLE_EQ(brand_nominal_ghz("Intel(R) Xeon(R) Processor @ 2.70GHz"),
                   2.7);
  EXPECT_DOUBLE_EQ(
      brand_nominal_ghz("Intel(R) Core(TM) i7-8700 CPU @ 3.20GHz"), 3.2);
  EXPECT_EQ(brand_nominal_ghz("Intel(R) Xeon(R) Processor"), 0.0);
  EXPECT_EQ(brand_nominal_ghz("AMD EPYC 7B12 64-Core Processor"), 0.0);
  // The host's frequency is whatever its brand string states.
  EXPECT_EQ(host_arch().nominal_ghz, brand_nominal_ghz(host_arch().name));
}

TEST(Arch, NativeIsasAreOrderedAndSupported) {
  const CpuArch& a = host_arch();
  for (Isa isa : a.native_isas()) EXPECT_TRUE(a.supports(isa));
}

TEST(Arch, SandyBridgeSynthetic) {
  const CpuArch a = sandy_bridge_arch();
  EXPECT_TRUE(a.has_avx);
  EXPECT_FALSE(a.has_fma3);
  EXPECT_FALSE(a.has_fma4);
  EXPECT_EQ(a.best_native_isa(), Isa::kAvx);
}

TEST(Arch, PiledriverSynthetic) {
  const CpuArch a = piledriver_arch();
  EXPECT_TRUE(a.has_fma3);
  EXPECT_TRUE(a.has_fma4);
  // FMA3 preferred (the paper selects the FMA3 code path on Piledriver via
  // ACML_FMA=3; our default mirrors that).
  EXPECT_EQ(a.best_native_isa(), Isa::kFma3);
  EXPECT_EQ(a.l1d_bytes, 16 * 1024);
  EXPECT_EQ(a.l2_bytes, 2048 * 1024);
}

TEST(Arch, ReportMentionsKeyFields) {
  const std::string r = piledriver_arch().report();
  EXPECT_NE(r.find("Piledriver"), std::string::npos);
  EXPECT_NE(r.find("L1d"), std::string::npos);
  EXPECT_NE(r.find("FMA4"), std::string::npos);
}

}  // namespace
}  // namespace augem
