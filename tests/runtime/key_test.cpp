#include "runtime/key.hpp"

#include <gtest/gtest.h>

#include <cctype>

namespace augem::runtime {
namespace {

using frontend::KernelKind;

TEST(ShapeClassify, GemmRegimes) {
  // At or under one 64-cube of work: small.
  EXPECT_EQ(classify_gemm_shape(64, 64, 64), ShapeClass::kSmall);
  EXPECT_EQ(classify_gemm_shape(8, 8, 8), ShapeClass::kSmall);
  // Just past the cube with balanced extents: large.
  EXPECT_EQ(classify_gemm_shape(65, 65, 65), ShapeClass::kLarge);
  EXPECT_EQ(classify_gemm_shape(512, 512, 512), ShapeClass::kLarge);
  // Starved C extent: skinny (either absolutely thin or 8x imbalanced).
  EXPECT_EQ(classify_gemm_shape(1000, 16, 1000), ShapeClass::kSkinny);
  EXPECT_EQ(classify_gemm_shape(16, 1000, 1000), ShapeClass::kSkinny);
  EXPECT_EQ(classify_gemm_shape(2000, 100, 100), ShapeClass::kSkinny);
  // k does not enter the skinny test: a deep but square-C problem is large.
  EXPECT_EQ(classify_gemm_shape(128, 128, 4096), ShapeClass::kLarge);
}

TEST(ShapeClassify, DegenerateExtentsStillKeyed) {
  EXPECT_EQ(classify_gemm_shape(0, 0, 0), ShapeClass::kSmall);
  EXPECT_EQ(classify_gemm_shape(-5, 10, 10), ShapeClass::kSmall);
}

TEST(ShapeClassify, VectorRegimes) {
  EXPECT_EQ(classify_vector_shape(1), ShapeClass::kSmall);
  EXPECT_EQ(classify_vector_shape(4096), ShapeClass::kSmall);
  EXPECT_EQ(classify_vector_shape(4097), ShapeClass::kLarge);
  EXPECT_EQ(classify_vector_shape(0), ShapeClass::kSmall);
}

TEST(KeyParse, EnumNamesRoundTrip) {
  for (ShapeClass s :
       {ShapeClass::kSmall, ShapeClass::kSkinny, ShapeClass::kLarge})
    EXPECT_EQ(parse_shape_class(shape_class_name(s)), s);
  for (KernelKind k : {KernelKind::kGemm, KernelKind::kGemv, KernelKind::kAxpy,
                       KernelKind::kDot, KernelKind::kScal})
    EXPECT_EQ(parse_kernel_kind(frontend::kernel_kind_name(k)), k);
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4})
    EXPECT_EQ(parse_isa(isa_name(isa)), isa);
  EXPECT_FALSE(parse_shape_class("tall").has_value());
  EXPECT_FALSE(parse_kernel_kind("trsm").has_value());
  EXPECT_FALSE(parse_isa("AVX512").has_value());
}

TEST(KeyFormat, ToStringIsCanonical) {
  KernelKey key;
  key.cpu = "testcpu_vfma3_l32.256.8192";
  key.kind = KernelKind::kGemm;
  key.isa = Isa::kFma3;
  key.shape = ShapeClass::kLarge;
  EXPECT_EQ(key.to_string(), "gemm/FMA3/f64/large@testcpu_vfma3_l32.256.8192");
}

TEST(KeyFormat, Fnv1a64MatchesPublishedVectors) {
  // Artifact file names and content hashes in a shared cache directory
  // depend on these exact values.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Bytes, not C strings: an embedded NUL is hashed like any other byte.
  EXPECT_NE(fnv1a64(std::string_view("a\0b", 3)), fnv1a64("a"));
}

TEST(KeyFormat, CpuSignatureIsSanitizedAndStable) {
  CpuArch arch;
  arch.name = "Weird CPU (R) @ 3.5GHz!";
  arch.has_fma3 = true;
  const std::string sig = cpu_signature(arch);
  EXPECT_FALSE(sig.empty());
  for (char c : sig)
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
                c == '_' || c == '-')
        << "unsanitized char in " << sig;
  // Deterministic: the same arch always signs identically.
  EXPECT_EQ(sig, cpu_signature(arch));
  // Feature bits change the signature (a tuned kernel must not survive a
  // microarchitecture change that alters which code wins).
  CpuArch other = arch;
  other.has_fma3 = false;
  other.has_avx = true;
  EXPECT_NE(cpu_signature(other), sig);
}

TEST(Dispatch, IsaLadderPrefersFma3ThenAvxThenSse2) {
  CpuArch arch;
  EXPECT_EQ(select_dispatch_isa(arch), Isa::kSse2);
  arch.has_avx = true;
  EXPECT_EQ(select_dispatch_isa(arch), Isa::kAvx);
  arch.has_fma3 = true;
  EXPECT_EQ(select_dispatch_isa(arch), Isa::kFma3);
  // FMA4 is never dispatched: every modeled FMA4 machine also has FMA3.
  arch.has_fma4 = true;
  EXPECT_EQ(select_dispatch_isa(arch), Isa::kFma3);
}

TEST(Dispatch, HostKernelKeyIsExecutable) {
  const KernelKey key = host_kernel_key(KernelKind::kAxpy, ShapeClass::kSmall);
  EXPECT_FALSE(key.cpu.empty());
  EXPECT_EQ(key.dtype, "f64");
  EXPECT_TRUE(host_arch().supports(key.isa));
}

}  // namespace
}  // namespace augem::runtime
