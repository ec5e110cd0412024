// Regression corpus replay: every minimized repro committed under
// tests/corpus/ is run through the full differential harness (one shard,
// sharded, sharded multi-threaded) with the invariant oracle attached, and
// must agree everywhere, forever. A case lands here because it once caught a
// real divergence — if one fails again, a fixed bug has come back.
//
// Reproduce one locally:  ./build/fuzz_sim --replay tests/corpus/<file>
// Corpus workflow: docs/TESTING.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/fuzz_case.hpp"

namespace sb::check {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(SMARTBLOCKS_CORPUS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, DirectoryIsPopulated) {
  ASSERT_TRUE(fs::is_directory(SMARTBLOCKS_CORPUS_DIR))
      << SMARTBLOCKS_CORPUS_DIR;
  EXPECT_GE(corpus_files().size(), 4u)
      << "the committed corpus should seed several diverse cases";
}

TEST(FuzzCorpus, EveryCaseReplaysCleanOnAllBackends) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    FuzzCase fuzz_case;
    ASSERT_NO_THROW(fuzz_case = FuzzCase::load(path));
    const DiffOutcome outcome = run_case(fuzz_case);
    EXPECT_TRUE(outcome.ok())
        << "regression: replay with  ./build/fuzz_sim --replay " << path
        << "\n"
        << outcome.report();
  }
}

}  // namespace
}  // namespace sb::check
