// Golden-assembly snapshot tests: the full generator pipeline is run over a
// fixed (kernel kind x ISA x vectorization strategy) grid and the rendered
// artifact — configuration header, machine IR, assembly text — is compared
// byte-for-byte against a checked-in golden file. Any intentional change to
// instruction selection, register allocation, scheduling or printing shows
// up as a reviewable diff instead of a silent output drift.
//
// Regenerating after an intentional change:
//
//   AUGEM_UPDATE_SNAPSHOTS=1 ctest -R Snapshot
//
// then review `git diff tests/snapshot/golden/` like any other code change
// (docs/benchmarking.md, "Snapshot etiquette"). On mismatch the test prints
// a unified diff of golden vs current.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "augem/augem.hpp"

namespace augem {
namespace {

using frontend::KernelKind;
using opt::VecStrategy;

struct SnapshotCase {
  KernelKind kind;
  Isa isa;
  VecStrategy strategy;
  /// Snapshot file stem, e.g. "gemm_fma3_vdup".
  std::string stem;
  /// Set for batched small-GEMM cases: the shape-specialized fully
  /// unrolled kernel with this spec's extents + fused epilogue is
  /// snapshotted instead of the generic blocked kernel.
  std::optional<frontend::SmallGemmSpec> small;
};

/// gtest prints the parameter into each ctest name; the stem keeps those
/// names stable (the default byte dump shows padding and heap pointers).
void PrintTo(const SnapshotCase& c, std::ostream* os) { *os << c.stem; }

KernelConfig options_for(const SnapshotCase& c) {
  KernelConfig o = c.small ? default_small_gemm_options(*c.small, c.isa)
                           : default_options(c.kind, c.isa);
  o.config.strategy = c.strategy;
  if (c.kind == KernelKind::kGemm && c.strategy == VecStrategy::kShuf) {
    // Shuf rotates a loaded B vector through its lanes, so the j tile must
    // equal the vector width (the w x w shape of bench_ablation_vdup_shuf)
    // and B must be row-panel: the only layout where the j elements of a
    // tile are contiguous.
    const int w = isa_vector_doubles(c.isa);
    o.params.mr = w;
    o.params.nr = w;
    o.layout = frontend::BLayout::kRowPanel;
  }
  return o;
}

/// The snapshot artifact: everything a reviewer needs to judge a diff.
std::string render(const SnapshotCase& c) {
  const KernelConfig o = options_for(c);
  const asmgen::GeneratedKernel gen = generate_kernel(o);
  std::ostringstream os;
  os << "# AUGEM golden snapshot (tests/snapshot)\n"
     << "# kind=" << frontend::kernel_kind_name(c.kind);
  if (c.small) os << " small=" << c.small->to_string();
  os << " isa=" << isa_name(c.isa)
     << " strategy=" << opt::vec_strategy_name(c.strategy)
     << " params=" << o.params.to_string() << "\n"
     << "# frame_bytes=" << gen.frame_bytes
     << " minsts=" << gen.insts.size() << "\n"
     << "\n== machine IR ==\n";
  for (const auto& inst : gen.insts) os << inst.to_string() << "\n";
  os << "\n== assembly ==\n" << gen.asm_text;
  return os.str();
}

std::string golden_path(const SnapshotCase& c) {
  return std::string(SNAPSHOT_GOLDEN_DIR) + "/" + c.stem + ".snap";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(text);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Minimal unified diff (LCS over lines; snapshots are a few hundred lines
/// so the quadratic table is fine). Context lines are elided to keep the
/// failure message focused on the changed hunks.
std::string unified_diff(const std::string& golden, const std::string& cur) {
  const std::vector<std::string> a = split_lines(golden);
  const std::vector<std::string> b = split_lines(cur);
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t j = m; j-- > 0;)
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1
                               : std::max(lcs[i + 1][j], lcs[i][j + 1]);
  std::ostringstream os;
  os << "--- golden\n+++ current\n";
  std::size_t i = 0, j = 0;
  int shown = 0;
  constexpr int kMaxShown = 120;
  while ((i < n || j < m) && shown < kMaxShown) {
    if (i < n && j < m && a[i] == b[j]) {
      ++i, ++j;
    } else if (j < m && (i == n || lcs[i][j + 1] >= lcs[i + 1][j])) {
      os << "@" << (j + 1) << " +" << b[j] << "\n";
      ++j, ++shown;
    } else {
      os << "@" << (i + 1) << " -" << a[i] << "\n";
      ++i, ++shown;
    }
  }
  if (shown >= kMaxShown) os << "... (diff truncated)\n";
  return os.str();
}

bool update_mode() {
  const char* env = std::getenv("AUGEM_UPDATE_SNAPSHOTS");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

class Snapshot : public ::testing::TestWithParam<SnapshotCase> {};

TEST_P(Snapshot, MatchesGolden) {
  const SnapshotCase& c = GetParam();
  const std::string current = render(c);
  const std::string path = golden_path(c);

  if (update_mode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << current;
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    GTEST_SKIP() << "snapshot updated: " << path;
  }

  const std::optional<std::string> golden = read_file(path);
  ASSERT_TRUE(golden.has_value())
      << "missing golden file " << path
      << "\nrun: AUGEM_UPDATE_SNAPSHOTS=1 ctest -R Snapshot";
  EXPECT_TRUE(*golden == current)
      << "generated output for " << c.stem
      << " diverged from the golden snapshot.\nIf the change is intentional, "
         "regenerate with AUGEM_UPDATE_SNAPSHOTS=1 and review the diff.\n"
      << unified_diff(*golden, current);
}

std::vector<SnapshotCase> snapshot_grid() {
  std::vector<SnapshotCase> cases;
  // GEMM: both vectorization strategies on every ISA the backend targets
  // (FMA4 is generated and snapshotted even though this host cannot run it
  // natively — the printer and mapping rules are host-independent).
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4})
    for (VecStrategy s : {VecStrategy::kVdup, VecStrategy::kShuf}) {
      std::string stem = std::string("gemm_") + isa_name(isa) + "_" +
                         opt::vec_strategy_name(s);
      for (char& ch : stem) ch = static_cast<char>(std::tolower(ch));
      cases.push_back({KernelKind::kGemm, isa, s, stem});
    }
  // Level-1/2 kernels: the narrowest and widest natively testable ISAs.
  for (KernelKind kind : {KernelKind::kGemv, KernelKind::kAxpy,
                          KernelKind::kDot, KernelKind::kScal})
    for (Isa isa : {Isa::kSse2, Isa::kFma3}) {
      std::string stem = std::string(frontend::kernel_kind_name(kind)) + "_" +
                         isa_name(isa) + "_vdup";
      for (char& ch : stem) ch = static_cast<char>(std::tolower(ch));
      cases.push_back({kind, isa, VecStrategy::kVdup, stem});
    }
  // Batched small-GEMM kernels: the register-tile (mr,nr) follows from the
  // extents, so the shape axis doubles as the (mr,nr,k) axis — 16x16x16
  // lands on the 8x4 tile (8x2 under scale), 8x4x8 on 8x4, 4x4x4 on the
  // 4x4 single-width tile. Crossed with every epilogue combination on the
  // widest ISA, plus one SSE2 point for the narrow-vector lowering.
  {
    const frontend::EpilogueSpec epis[] = {
        {},
        {.scale = true},
        {.bias = true},
        {.relu = true},
        {.scale = true, .bias = true, .relu = true},
    };
    const struct {
      int m, n, k;
    } shapes[] = {{16, 16, 16}, {8, 4, 8}, {4, 4, 4}};
    for (const auto& sh : shapes)
      for (const frontend::EpilogueSpec& e : epis) {
        frontend::SmallGemmSpec spec;
        spec.m = sh.m;
        spec.n = sh.n;
        spec.k = sh.k;
        spec.epilogue = e;
        std::string stem = "small_" + std::to_string(sh.m) + "x" +
                           std::to_string(sh.n) + "x" + std::to_string(sh.k) +
                           e.suffix() + "_fma3";
        cases.push_back(
            {KernelKind::kGemm, Isa::kFma3, VecStrategy::kVdup, stem, spec});
      }
    frontend::SmallGemmSpec sse;
    sse.m = sse.n = sse.k = 8;
    sse.epilogue = {.bias = true, .relu = true};
    cases.push_back({KernelKind::kGemm, Isa::kSse2, VecStrategy::kVdup,
                     "small_8x8x8_bias_relu_sse2", sse});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, Snapshot, ::testing::ValuesIn(snapshot_grid()),
                         [](const ::testing::TestParamInfo<SnapshotCase>& i) {
                           return i.param.stem;
                         });

}  // namespace
}  // namespace augem
