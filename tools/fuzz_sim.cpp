// Differential scenario fuzzer (docs/TESTING.md).
//
// Generates seeded adversarial scenarios, runs each through every execution
// backend (one shard, sharded, sharded multi-thread, optionally the dist
// sweep), and cross-checks traces, outcomes, and the invariant oracle.
// Failing cases are delta-debugged to a minimal repro and written to the
// corpus directory, where tests/fuzz_corpus_test replays them forever.
//
//   fuzz_sim --runs 500 --seed 1          # the standing acceptance sweep
//   fuzz_sim --replay tests/corpus/x.fuzz.json   # re-run one repro, verbose
//   fuzz_sim --emit case.fuzz.json --seed 7      # save a generated case
//
// Exit codes: 0 clean, 1 findings (divergence/violation), 2 usage error.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "check/minimize.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/json.hpp"

namespace {

using namespace sb;

struct FuzzStats {
  uint64_t runs = 0;
  uint64_t comparable = 0;
  uint64_t churned = 0;
  uint64_t findings = 0;
};

check::DiffOptions diff_options_from(const CliParser& cli) {
  check::DiffOptions options;
  options.alt_shards = static_cast<size_t>(cli.get_int("shards"));
  options.alt_threads = static_cast<size_t>(cli.get_int("threads"));
  options.run_dist = cli.get_bool("dist");
  return options;
}

int replay(const std::string& path, const check::DiffOptions& options) {
  const check::FuzzCase fuzz_case = check::FuzzCase::load(path);
  const check::DiffOutcome outcome = check::run_case(fuzz_case, options);
  std::fputs(outcome.report().c_str(), stdout);
  return outcome.ok() ? 0 : 1;
}

int emit(const std::string& path, uint64_t seed) {
  const check::FuzzCase fuzz_case = check::generate_case(seed);
  fuzz_case.save(path);
  std::printf("wrote %s: %s\n", path.c_str(),
              fuzz_case.describe().c_str());
  return 0;
}

/// Shrinks a failing case and writes the repro into the corpus directory.
void minimize_and_save(const check::FuzzCase& failing,
                       const check::DiffOptions& options,
                       const std::string& corpus_dir, bool no_minimize) {
  check::FuzzCase repro = failing;
  if (!no_minimize) {
    const check::MinimizeResult minimized = check::minimize_case(
        failing, [&options](const check::FuzzCase& candidate) {
          return !check::run_case(candidate, options).ok();
        });
    repro = minimized.minimized;
    std::printf("minimized: %zu -> %zu blocks in %llu evaluations\n",
                minimized.blocks_before, minimized.blocks_after,
                static_cast<unsigned long long>(minimized.evals));
  }
  std::error_code ignored;
  std::filesystem::create_directories(corpus_dir, ignored);
  const std::string path =
      fmt("{}/min-{}.fuzz.json", corpus_dir, util::hex_u64(repro.seed));
  repro.save(path);
  std::printf("repro written: %s\n  replay: fuzz_sim --replay %s\n",
              path.c_str(), path.c_str());
}

int fuzz(const CliParser& cli) {
  const check::DiffOptions options = diff_options_from(cli);
  const uint64_t runs = static_cast<uint64_t>(cli.get_int("runs"));
  const uint64_t seed0 = static_cast<uint64_t>(cli.get_int("seed"));
  const uint64_t max_findings =
      static_cast<uint64_t>(cli.get_int("max-findings"));
  const bool verbose = cli.get_bool("verbose");
  check::GeneratorOptions generator;
  generator.churn_rate = cli.get_double("churn-rate");

  FuzzStats stats;
  for (uint64_t i = 0; i < runs; ++i) {
    const uint64_t seed = seed0 + i;
    const check::FuzzCase fuzz_case = check::generate_case(seed, generator);
    ++stats.runs;
    stats.comparable += fuzz_case.comparable ? 1 : 0;
    stats.churned += fuzz_case.churn.empty() ? 0 : 1;
    if (verbose) {
      std::printf("[%llu/%llu] %s\n", static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(runs),
                  fuzz_case.describe().c_str());
    }
    const check::DiffOutcome outcome = check::run_case(fuzz_case, options);
    if (outcome.ok()) continue;

    ++stats.findings;
    std::printf("FINDING (seed %s):\n%s",
                util::hex_u64(seed).c_str(), outcome.report().c_str());
    minimize_and_save(fuzz_case, options, cli.get_string("corpus-dir"),
                      cli.get_bool("no-minimize"));
    if (stats.findings >= max_findings) {
      std::printf("stopping after %llu findings (--max-findings)\n",
                  static_cast<unsigned long long>(stats.findings));
      break;
    }
  }

  std::printf(
      "fuzz_sim: %llu runs (seeds %s..%s), %llu full-diff, %llu with churn, "
      "%llu findings\n",
      static_cast<unsigned long long>(stats.runs),
      util::hex_u64(seed0).c_str(),
      util::hex_u64(seed0 + (runs == 0 ? 0 : runs - 1)).c_str(),
      static_cast<unsigned long long>(stats.comparable),
      static_cast<unsigned long long>(stats.churned),
      static_cast<unsigned long long>(stats.findings));
  return stats.findings == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Differential scenario fuzzer: generates adversarial scenarios, runs "
      "them through the one-shard, sharded, and multi-threaded backends, "
      "cross-checks traces and invariants, and minimizes any failure into a "
      "replayable corpus file (docs/TESTING.md).");
  cli.add_int("runs", 50, "number of generated cases");
  cli.add_int("seed", 1, "first generator seed (cases use seed, seed+1, ...)");
  cli.add_int("shards", 4, "shard count of the sharded backends");
  cli.add_int("threads", 3, "worker threads of the multi-threaded backend");
  cli.add_bool("dist", false,
               "also differential-test the distributed sweep backend "
               "(slower; non-churn cases only)");
  cli.add_double("churn-rate", 0.35,
                 "fraction of cases carrying kill/hot-join churn plans");
  cli.add_string("corpus-dir", "tests/corpus",
                 "where minimized repro files are written");
  cli.add_bool("no-minimize", false, "save failing cases unminimized");
  cli.add_int("max-findings", 5, "stop after this many failing cases");
  cli.add_string("replay", "",
                 "re-run one saved case and print the divergence report");
  cli.add_string("emit", "", "generate one case from --seed and save it");
  cli.add_bool("verbose", false, "print every case before running it");
  if (!cli.parse(argc, argv)) return 2;

  try {
    if (!cli.get_string("replay").empty()) {
      return replay(cli.get_string("replay"), diff_options_from(cli));
    }
    if (!cli.get_string("emit").empty()) {
      return emit(cli.get_string("emit"),
                  static_cast<uint64_t>(cli.get_int("seed")));
    }
    return fuzz(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fuzz_sim: %s\n", error.what());
    return 2;
  }
}
