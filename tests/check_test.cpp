// Tests for the correctness-tooling subsystem (src/check): generator
// determinism and validity, repro-file round trips, the invariant oracle's
// detection power, the delta-debugging minimizer, and the differential
// harness — including the acceptance self-test that plants a real lost-
// message bug in the sharded engine (SB_SIM_FAULT_DROP_FLUSH) and demands
// the fuzzer find it, minimize it small, and keep a replayable repro.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "check/minimize.hpp"
#include "check/oracle.hpp"
#include "core/reconfig.hpp"
#include "lattice/region.hpp"
#include "lattice/scenario.hpp"
#include "util/fmt.hpp"

namespace sb::check {
namespace {

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(Generator, EveryCaseIsValidAndDeterministic) {
  std::set<std::string> families;
  size_t uniform_comparable = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const FuzzCase a = generate_case(seed);
    EXPECT_TRUE(lat::validate(a.scenario).empty())
        << "seed " << seed << ": " << lat::validate(a.scenario).front();
    const FuzzCase b = generate_case(seed);
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump()) << "seed " << seed;
    families.insert(a.scenario.name);
    if (!a.comparable) continue;
    // The comparability contract: order-free ties, no timeout machinery,
    // and fixed latency whenever churn lands mid-run.
    EXPECT_EQ(a.election_tie, core::ElectionTie::kLowestId);
    EXPECT_EQ(a.ack_timeout, 0u);
    if (!a.churn.empty()) {
      EXPECT_EQ(a.latency_kind, "fixed");
    }
    uniform_comparable += a.latency_kind == "uniform" ? 1 : 0;
  }
  // 40 seeds must exercise several of the five families, and jitter
  // across engines.
  EXPECT_GE(families.size(), 3u) << "generator stuck on one family";
  EXPECT_GE(uniform_comparable, 1u) << "no comparable case under jitter";
}

TEST(Generator, KillChurnIsNeverMarkedComparable) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FuzzCase fuzz_case = generate_case(seed);
    const bool any_kill = std::any_of(
        fuzz_case.churn.begin(), fuzz_case.churn.end(),
        [](const ChurnOp& op) { return op.kind == ChurnOp::Kind::kKill; });
    if (any_kill) {
      EXPECT_FALSE(fuzz_case.comparable) << "seed " << seed;
      EXPECT_GT(fuzz_case.ack_timeout, 0u) << "seed " << seed;
    }
  }
}

TEST(Generator, AlwaysComparableForcesFullDiffKnobs) {
  GeneratorOptions options;
  options.always_comparable = true;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const FuzzCase fuzz_case = generate_case(seed, options);
    EXPECT_TRUE(fuzz_case.comparable);
    for (const ChurnOp& op : fuzz_case.churn) {
      EXPECT_EQ(op.kind, ChurnOp::Kind::kJoin);
    }
  }
}

// ---------------------------------------------------------------------------
// Repro files
// ---------------------------------------------------------------------------

TEST(FuzzCaseFile, JsonRoundTripIsExact) {
  for (uint64_t seed : {3ULL, 6ULL, 19ULL}) {  // cover churn + both kinds
    const FuzzCase original = generate_case(seed);
    const FuzzCase back = FuzzCase::from_json(original.to_json());
    EXPECT_EQ(original.to_json().dump(), back.to_json().dump());
    EXPECT_EQ(original.describe(), back.describe());
  }
}

TEST(FuzzCaseFile, MalformedInputThrows) {
  EXPECT_THROW(FuzzCase::from_json(util::parse_json("{}")),
               std::runtime_error);
  util::JsonValue bad = generate_case(1).to_json();
  bad["format"] = "sb-fuzz-case-v999";
  EXPECT_THROW(FuzzCase::from_json(bad), std::runtime_error);
  EXPECT_THROW(FuzzCase::load("/nonexistent/x.fuzz.json"),
               std::runtime_error);

  // A scenario that parses but fails lat::validate() is rejected on load
  // (the session would abort on it), naming the case and its first issue.
  const auto expect_invalid = [](const FuzzCase& fuzz_case,
                                 const std::string& issue) {
    try {
      (void)FuzzCase::from_json(fuzz_case.to_json());
      ADD_FAILURE() << "accepted an invalid scenario: " << issue;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(issue), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find(fuzz_case.name),
                std::string::npos)
          << error.what();
    }
  };
  // A second block, under an id the generator never uses, on a taken cell.
  FuzzCase shared_cell = generate_case(1);
  const lat::Vec2 taken = shared_cell.scenario.blocks.front().second;
  shared_cell.scenario.blocks.emplace_back(
      lat::BlockId{lat::Grid::kMaxBlockIdValue}, taken);
  expect_invalid(shared_cell, fmt("two blocks share cell {}", taken));
  FuzzCase oversized = generate_case(1);
  oversized.scenario.width = 100000;
  oversized.scenario.height = 100000;
  expect_invalid(oversized, "surface 100000x100000 has 10000000000 cells");

  // Mistyped fields and values the engine asserts on are one error naming
  // the field, never an abort.
  const auto expect_refused = [](const util::JsonValue& json,
                                 const std::string& named) {
    try {
      (void)FuzzCase::from_json(json);
      ADD_FAILURE() << "accepted " << json.dump();
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(named), std::string::npos)
          << error.what();
    }
  };
  const auto with = [](const char* field, util::JsonValue value) {
    util::JsonValue json = generate_case(1).to_json();
    json[field] = std::move(value);
    return json;
  };
  expect_refused(with("seed", util::JsonValue(5)), "'seed'");
  expect_refused(with("max_iterations", util::JsonValue("many")),
                 "'max_iterations'");
  expect_refused(with("max_iterations", util::JsonValue(1.5)),
                 "'max_iterations'");
  expect_refused(with("motion_duration", util::JsonValue(0)),
                 "'motion_duration'");
  expect_refused(with("churn", util::JsonValue("none")), "'churn'");
  util::JsonValue latency = util::JsonValue::object();
  latency["kind"] = "uniform";
  latency["lo"] = 0;
  latency["hi"] = 3;
  expect_refused(with("latency", latency), "'lo'");
  latency["lo"] = 5;
  expect_refused(with("latency", latency), "latency lo 5 exceeds hi 3");
  latency["kind"] = "gaussian";
  expect_refused(with("latency", latency), "gaussian");
}

// ---------------------------------------------------------------------------
// Invariant oracle
// ---------------------------------------------------------------------------

TEST(Oracle, CleanRunStaysClean) {
  const lat::Scenario scenario = lat::make_fig10_scenario();
  core::ReconfigurationSession session(scenario, core::SessionConfig{});
  InvariantOracle oracle;
  oracle.attach(session);
  const core::SessionResult result = session.run();
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(oracle.clean()) << oracle.violations().front();
  EXPECT_GT(oracle.checks_run(), 0u);
}

TEST(Oracle, DetectsDisconnectionAndLostBlocks) {
  // Corrupt the world behind the session's back: removing the far corner
  // block of a 2xN tower severs nothing, but removing a middle column cell
  // disconnects the top half. Either way conservation is broken.
  const lat::Scenario scenario = lat::make_tower_scenario(4);
  core::ReconfigurationSession session(scenario, core::SessionConfig{});
  InvariantOracle oracle;
  oracle.attach(session);

  lat::Grid& grid = session.simulator().world().grid();
  // Remove a block mid-structure: conservation + (likely) connectivity.
  grid.remove(scenario.blocks[2].second);
  oracle.check_now(session.simulator());
  ASSERT_FALSE(oracle.clean());
  bool conservation = false;
  for (const std::string& violation : oracle.violations()) {
    conservation |= violation.find("conservation") != std::string::npos;
  }
  EXPECT_TRUE(conservation) << oracle.violations().front();
}

TEST(Oracle, DetectsStaleConnectivityCache) {
  const lat::Scenario scenario = lat::make_tower_scenario(4);
  core::ReconfigurationSession session(scenario, core::SessionConfig{});
  OracleOptions options;
  options.hint_probe_rate = 1.0;  // always cross-check the cache
  InvariantOracle oracle(options);
  oracle.attach(session);

  // Plant a wrong cached verdict on a connected grid.
  const lat::Grid& grid = session.simulator().world().grid();
  grid.set_connectivity_hint(lat::ConnectivityHint::kDisconnected);
  oracle.check_now(session.simulator());
  ASSERT_FALSE(oracle.clean());
  EXPECT_NE(oracle.violations().front().find("cached connectivity"),
            std::string::npos);
}

TEST(Oracle, SlotAuditHoldsAcrossChunksAndKills) {
  // A hot-join whose id (5000) opens a chunk of slots of its own, far past
  // the tower's ids, and a kill: every id the tag column registers still
  // finds its own program, and the count matches.
  const lat::Scenario scenario = lat::make_tower_scenario(4);
  core::ReconfigurationSession session(scenario, core::SessionConfig{});
  InvariantOracle oracle;
  oracle.attach(session);
  session.step_events(40);
  sim::Simulator& sim = session.simulator();
  const lat::WorldView view = sim.world().view();
  std::optional<lat::Vec2> site;
  for (int32_t y = 0; y < view.height() && !site; ++y) {
    for (int32_t x = 0; x < view.width() && !site; ++x) {
      const lat::Vec2 cell{x, y};
      if (!view.occupied(cell) && view.occupied_neighbor_count(cell) > 0 &&
          !sim.cell_in_motion(cell)) {
        site = cell;
      }
    }
  }
  ASSERT_TRUE(site.has_value());
  session.hot_join(lat::BlockId{5000}, *site);
  oracle.expect_join();
  sim.kill_module(scenario.blocks.back().first);
  oracle.check_now(sim);
  EXPECT_EQ(sim.module_count(), scenario.block_count() + 1);
  EXPECT_TRUE(oracle.clean()) << oracle.violations().front();
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(Minimizer, ShrinksToPredicateCore) {
  // Synthetic predicate: the bug "needs" one specific block position. The
  // minimizer must strip most of the rest and keep every candidate valid.
  const FuzzCase failing = generate_case(2);
  ASSERT_GE(failing.scenario.block_count(), 20u);
  const lat::Vec2 needle =
      failing.scenario.blocks[failing.scenario.block_count() / 2].second;
  const auto still_fails = [needle](const FuzzCase& candidate) {
    if (!lat::validate(candidate.scenario).empty()) return false;
    for (const auto& [id, pos] : candidate.scenario.blocks) {
      if (pos == needle) return true;
    }
    return false;
  };

  const MinimizeResult result = minimize_case(failing, still_fails);
  EXPECT_TRUE(still_fails(result.minimized));
  EXPECT_TRUE(lat::validate(result.minimized.scenario).empty());
  EXPECT_LT(result.blocks_after, result.blocks_before);
  // validate() forbids fewer blocks than the I->O shortest path (Lemma 1),
  // so that is the floor; a handful above it covers the bridge the needle
  // block needs to stay connected.
  const auto floor = static_cast<size_t>(lat::shortest_path_cells(
      result.minimized.scenario.input, result.minimized.scenario.output));
  EXPECT_LE(result.blocks_after, floor + 8)
      << "ddmin left " << result.blocks_after << " of "
      << result.blocks_before << " blocks (validity floor " << floor << ")";
  // Knob simplification: the synthetic bug ignores knobs entirely, so they
  // must all land on their simplest values.
  EXPECT_EQ(result.minimized.latency_kind, "fixed");
  EXPECT_EQ(result.minimized.latency_lo, 1u);
  EXPECT_TRUE(result.minimized.churn.empty());
}

TEST(Minimizer, RespectsEvalBudget) {
  const FuzzCase failing = generate_case(2);
  uint64_t calls = 0;
  MinimizeOptions options;
  options.max_evals = 5;
  const MinimizeResult result = minimize_case(
      failing,
      [&calls](const FuzzCase&) {
        ++calls;
        return true;  // everything "fails": worst case for the budget
      },
      options);
  EXPECT_LE(result.evals, 5u);
  EXPECT_EQ(result.evals, calls);
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

TEST(Differential, KnownGoodCaseAgreesEverywhere) {
  GeneratorOptions options;
  options.always_comparable = true;
  const DiffOutcome outcome = run_case(generate_case(11, options));
  EXPECT_TRUE(outcome.ok()) << outcome.report();
  ASSERT_EQ(outcome.runs.size(), 3u);
  EXPECT_GT(outcome.runs[0].move_trace.size(), 0u);
  // Comparable case: one-shard and four-shard move traces byte-identical.
  EXPECT_EQ(outcome.runs[0].move_trace, outcome.runs[1].move_trace);
  EXPECT_EQ(outcome.runs[1].event_trace, outcome.runs[2].event_trace);
}

TEST(Differential, ReportNamesEveryBackend) {
  const DiffOutcome outcome = run_case(generate_case(4));
  const std::string report = outcome.report();
  EXPECT_NE(report.find("one-shard[shards=1]"), std::string::npos);
  EXPECT_NE(report.find("sharded[shards=4"), std::string::npos);
  EXPECT_NE(report.find("verdict:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance self-test: plant a real engine bug, demand the pipeline
// catches it end to end (ISSUE: fuzz -> catch -> minimize <= 32 modules ->
// replayable repro).
// ---------------------------------------------------------------------------

/// Scoped env var: the fault must never leak into other tests.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const char* value) {
    ::setenv("SB_SIM_FAULT_DROP_FLUSH", value, 1);
  }
  ~ScopedFaultInjection() { ::unsetenv("SB_SIM_FAULT_DROP_FLUSH"); }
};

TEST(Acceptance, OracleReportsTheDeliveriesAnInjectedFlushDrops) {
  // The fault discards the cross-shard deliveries of one rendezvous. No
  // trace comparison is needed to see it: the oracle's message audit finds
  // messages sent that were neither delivered, dropped nor queued, and
  // reports them once. The same run without the fault audits clean.
  const auto audit = [](bool fault_on) {
    std::optional<ScopedFaultInjection> fault;
    if (fault_on) fault.emplace("25");
    core::SessionConfig config;
    config.sim.shards = 4;
    core::ReconfigurationSession session(lat::resolve_scenario("blob1000"),
                                         config);
    InvariantOracle oracle;
    oracle.attach(session);
    (void)session.step_events(20'000);
    oracle.check_now(session.simulator());
    return oracle.violations();
  };
  EXPECT_TRUE(audit(false).empty());
  const std::vector<std::string> violations = audit(true);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("message conservation broken"),
            std::string::npos)
      << violations.front();
}

TEST(Acceptance, InjectedFlushDropIsCaughtMinimizedAndReplayable) {
  FuzzCase caught;
  {
    ScopedFaultInjection fault("25");
    // Sweep seeds until the dropped barrier flush produces a divergence —
    // the bug only fires in runs long enough to reach flush #25 with
    // cross-shard traffic in flight, exactly how tools/fuzz_sim hunts.
    bool found = false;
    for (uint64_t seed = 1; seed <= 40 && !found; ++seed) {
      const FuzzCase candidate = generate_case(seed);
      if (!candidate.comparable) continue;
      if (!run_case(candidate).ok()) {
        caught = candidate;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "no seed in 1..40 tripped the injected bug";

    MinimizeOptions options;
    options.max_evals = 120;
    const MinimizeResult minimized = minimize_case(
        caught,
        [](const FuzzCase& candidate) { return !run_case(candidate).ok(); },
        options);
    EXPECT_LE(minimized.minimized.scenario.block_count(), 32u)
        << "minimizer stalled at " << minimized.minimized.scenario.block_count()
        << " blocks";

    // The minimized repro must survive a JSON round trip and still fail.
    const FuzzCase replayed =
        FuzzCase::from_json(minimized.minimized.to_json());
    const DiffOutcome bad = run_case(replayed);
    EXPECT_FALSE(bad.ok());
    EXPECT_FALSE(bad.report().empty());
    caught = replayed;
  }
  // Fault gone: the same repro must pass — the bug was the engine's, not
  // the case's.
  const DiffOutcome good = run_case(caught);
  EXPECT_TRUE(good.ok()) << good.report();
}

}  // namespace
}  // namespace sb::check
