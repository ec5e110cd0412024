// Experiments E1-E4: the rule algebra of §IV.
//   E1  Table I event codes + Table II truth table (definitional check)
//   E2  Eq (1) x Eq (2) = Eq (3) "east sliding" worked example
//   E3  Fig 4 symmetry / Fig 5 invalid situations / Fig 6 carrying
//   E4  Fig 7 capability XML round trip
// plus microbenchmarks of the validation kernel (MM (x) MP), placement
// matching and capability parsing, which bound how fast a block can
// evaluate Eq (9) during elections.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "lattice/world_view.hpp"
#include "motion/apply.hpp"
#include "motion/rule_xml.hpp"
#include "motion/transform.hpp"
#include "motion/truth_table.hpp"
#include "util/rng.hpp"

namespace {

using namespace sb;
using motion::CodeMatrix;
using motion::PresenceMatrix;

// ---------------------------------------------------------------------------
// Reproduction tables (printed before the microbenchmarks)
// ---------------------------------------------------------------------------

bool print_reproduction_tables() {
  bool ok = true;
  std::printf("\n=== E1: Table II truth table (paper vs implementation) ===\n");
  std::printf("presence |  0  1  2  3  4  5\n");
  const bool paper[2][6] = {{true, false, true, true, false, false},
                            {false, true, true, false, true, true}};
  for (int presence = 0; presence < 2; ++presence) {
    std::printf("       %d |", presence);
    for (int code = 0; code < motion::kEventCodeCount; ++code) {
      const bool value = motion::motion_entry_valid(
          presence == 1, *motion::event_code_from_int(code));
      std::printf("  %d", value ? 1 : 0);
      ok &= value == paper[presence][code];
    }
    std::printf("\n");
  }
  std::printf("Table II: %s\n", ok ? "REPRODUCED" : "DIVERGES");

  std::printf("\n=== E2: Eq (1) x Eq (2) = Eq (3), east sliding ===\n");
  const CodeMatrix mm = CodeMatrix::from_rows({{2, 0, 0},
                                               {2, 4, 3},
                                               {2, 1, 1}});
  const PresenceMatrix mp = PresenceMatrix::from_rows({{0, 0, 0},
                                                       {1, 1, 0},
                                                       {1, 1, 1}});
  const motion::ValidationMatrix eq3 = combine(mm, mp);
  std::printf("MM (x) MP =\n%s", eq3.to_text().c_str());
  ok &= eq3.all_valid();
  std::printf("Eq (3) all-ones: %s\n", eq3.all_valid() ? "REPRODUCED"
                                                       : "DIVERGES");

  std::printf("\n=== E3: Fig 4 symmetry, Fig 5 invalid cases, Fig 6 carry ===\n");
  const motion::RuleLibrary lib = motion::RuleLibrary::standard();
  const motion::MotionRule* slide = lib.find("slide_ES");
  const motion::MotionRule mirrored =
      mirror_vertical(*slide, "fig4");
  const bool fig4 = mirrored.matrix() == CodeMatrix::from_rows({{2, 1, 1},
                                                                {2, 4, 3},
                                                                {2, 0, 0}});
  std::printf("Fig 4 vertical symmetry: %s\n",
              fig4 ? "REPRODUCED" : "DIVERGES");
  ok &= fig4;

  const PresenceMatrix fig5_no_support =
      PresenceMatrix::from_rows({{0, 0, 0}, {1, 1, 0}, {1, 1, 0}});
  const bool fig5 = !combine(slide->matrix(), fig5_no_support).all_valid();
  std::printf("Fig 5 invalid situation rejected: %s\n",
              fig5 ? "REPRODUCED" : "DIVERGES");
  ok &= fig5;

  const motion::MotionRule* carry = lib.find("carry_ES");
  const PresenceMatrix eq5 =
      PresenceMatrix::from_rows({{0, 0, 0}, {1, 1, 0}, {1, 1, 0}});
  const bool fig6 = combine(carry->matrix(), eq5).all_valid();
  std::printf("Fig 6 / Eq (4)-(5) east carrying valid: %s\n",
              fig6 ? "REPRODUCED" : "DIVERGES");
  ok &= fig6;

  std::printf("\n=== E4: Fig 7 capability XML round trip ===\n");
  const std::string xml = serialize_capabilities(lib);
  const motion::RuleLibrary reparsed = motion::parse_capabilities(xml);
  const bool e4 = reparsed.size() == lib.size();
  std::printf("16 rules serialized and reparsed: %s\n",
              e4 ? "REPRODUCED" : "DIVERGES");
  ok &= e4;
  return ok;
}

// ---------------------------------------------------------------------------
// Microbenchmarks
// ---------------------------------------------------------------------------

void BM_CombineOperator(benchmark::State& state) {
  const CodeMatrix mm = CodeMatrix::from_rows({{2, 0, 0},
                                               {2, 4, 3},
                                               {2, 1, 1}});
  Rng rng(1);
  PresenceMatrix mp(3);
  for (int32_t r = 0; r < 3; ++r) {
    for (int32_t c = 0; c < 3; ++c) mp.set(r, c, rng.next_bool());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(combine(mm, mp).all_valid());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CombineOperator);

void BM_RuleApplicableOnGrid(benchmark::State& state) {
  lat::Grid grid(8, 8);
  grid.place(lat::BlockId{1}, {1, 1});
  grid.place(lat::BlockId{2}, {1, 0});
  grid.place(lat::BlockId{3}, {2, 0});
  const lat::WorldView view(grid);
  const motion::RuleLibrary lib = motion::RuleLibrary::standard();
  const motion::MotionRule* rule = lib.find("slide_ES");
  for (auto _ : state) {
    benchmark::DoNotOptimize(motion::rule_applicable(*rule, view, {1, 1}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RuleApplicableOnGrid);

void BM_EnumerateApplications(benchmark::State& state) {
  // A block on a dense surface: the full Eq (9) evaluation a block
  // performs per activation.
  lat::Grid grid(10, 10);
  uint32_t id = 1;
  for (int32_t y = 0; y < 4; ++y) {
    for (int32_t x = 0; x < 4; ++x) {
      grid.place(lat::BlockId{id++}, {x + 2, y + 2});
    }
  }
  const lat::WorldView view(grid);
  const motion::RuleLibrary lib = motion::RuleLibrary::standard();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        motion::enumerate_applications(lib, view, {2, 2}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EnumerateApplications);

void BM_CapabilityXmlParse(benchmark::State& state) {
  const std::string xml =
      serialize_capabilities(motion::RuleLibrary::standard());
  for (auto _ : state) {
    benchmark::DoNotOptimize(motion::parse_capabilities(xml).size());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * xml.size()));
}
BENCHMARK(BM_CapabilityXmlParse);

}  // namespace

int main(int argc, char** argv) {
  if (!print_reproduction_tables()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
