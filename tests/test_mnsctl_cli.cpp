// mnsctl usage-contract tests: every malformed invocation — unknown
// subcommand, missing argument, bad flag value, missing flag value — must
// print the usage block to stderr and exit 2, consistently across every
// subcommand. Runs the real binary via popen; CMake points
// MNSCTL_BIN at $<TARGET_FILE:mnsctl> and skips this test entirely when
// examples are not built (the sanitizer jobs).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined
};

CliResult run_mnsctl(const std::string& args) {
  const char* bin = std::getenv("MNSCTL_BIN");
  if (bin == nullptr || *bin == '\0') return {};
  const std::string cmd = std::string(bin) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  CliResult out;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
    out.output.append(buf.data(), n);
  const int status = ::pclose(pipe);
  out.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status)
                                                     : -1;
  return out;
}

TEST(MnsctlCli, MalformedInvocationsPrintUsageAndExit2) {
  if (std::getenv("MNSCTL_BIN") == nullptr)
    GTEST_SKIP() << "MNSCTL_BIN not set (examples not built)";
  const std::vector<std::string> malformed = {
      "",                            // missing subcommand
      "frobnicate",                  // unknown subcommand
      "gen",                         // gen without --family
      "gen --family planar",         // gen without -o
      "gen --family",                // flag missing its value
      "gen --family planar --size nope -o x.mns",  // non-numeric value
      "gen --family planar --size 0 -o x.mns",     // out-of-range value
      "build",                       // build without <snapshot>
      "solve",                       // solve without <snapshot>
      "solve x.mns",                 // solve without --workload
      "serve",                       // serve without <snapshot>
      "dist x.mns",                  // removed subcommand
      "inspect",                     // inspect without <snapshot>
      "diff",                        // diff without both documents
      "diff a.json",                 // diff with one document
      "baseline",                    // baseline without <in.json>
      "baseline a.json",             // baseline without -o
      "solve --bogus-flag x.mns",    // unknown flag
      "solve x.mns --workload nosuch",  // unregistered workload name
      "solve x.mns --workload mis --partition bogus",  // bad partition source
      "solve x.mns --workload mst --threads 0",   // width below 1
      "solve x.mns --workload mst --threads -1",  // no hardware-width alias
  };
  for (const std::string& args : malformed) {
    SCOPED_TRACE("mnsctl " + args);
    const CliResult r = run_mnsctl(args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
  // The usage block is generated from the registry: a typo'd workload gets
  // the actual catalogue, not a stale hardcoded list.
  const CliResult bad = run_mnsctl("solve x.mns --workload nosuch");
  EXPECT_NE(bad.output.find("unknown workload 'nosuch'"), std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("registered workloads"), std::string::npos)
      << bad.output;
  EXPECT_NE(bad.output.find("domset"), std::string::npos) << bad.output;
  EXPECT_NE(bad.output.find("mis"), std::string::npos) << bad.output;
  // `dist` is gone: it is an unknown subcommand and the usage text no longer
  // lists it.
  const CliResult dist = run_mnsctl("dist x.mns");
  EXPECT_NE(dist.output.find("unknown subcommand 'dist'"), std::string::npos)
      << dist.output;
  EXPECT_EQ(dist.output.find("mnsctl dist"), std::string::npos) << dist.output;
  EXPECT_EQ(dist.output.find("\ndist "), std::string::npos) << dist.output;
}

TEST(MnsctlCli, WellFormedGenSolveDiffRoundTripExitsZero) {
  if (std::getenv("MNSCTL_BIN") == nullptr)
    GTEST_SKIP() << "MNSCTL_BIN not set (examples not built)";
  // A tiny end-to-end pass through the happy path keeps the exit-code
  // contract two-sided: 2 is for usage errors, 0 is for success.
  const std::string dir = ::testing::TempDir() + "mnsctl_cli";
  const std::string snap = dir + "/net.mns";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  CliResult gen = run_mnsctl("gen --family planar --size 4 --seed 3 -o " +
                             snap);
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  CliResult solve =
      run_mnsctl("solve " + snap + " --workload mst -o " + dir + "/a.json");
  EXPECT_EQ(solve.exit_code, 0) << solve.output;
  CliResult diff =
      run_mnsctl("diff --baseline " + dir + "/a.json " + dir + "/a.json");
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
  // The new workloads ride the same snapshot: mis happy path, and an
  // LDD-partition mst whose report lands in the canonical JSON shape.
  CliResult mis = run_mnsctl("solve " + snap + " --workload mis");
  EXPECT_EQ(mis.exit_code, 0) << mis.output;
  EXPECT_NE(mis.output.find("\"kind\": \"mis\""), std::string::npos)
      << mis.output;
  CliResult ldd = run_mnsctl("solve " + snap +
                             " --workload mst --partition ldd --repeat 2");
  EXPECT_EQ(ldd.exit_code, 0) << ldd.output;
  // The repeat wrapper records the width it ran at (default 1).
  EXPECT_NE(ldd.output.find("\"command\": \"solve\", \"workload\": \"mst\", "
                            "\"threads\": 1,"),
            std::string::npos)
      << ldd.output;
}

TEST(MnsctlCli, SolveReportIsIdenticalAtEveryThreadWidth) {
  if (std::getenv("MNSCTL_BIN") == nullptr)
    GTEST_SKIP() << "MNSCTL_BIN not set (examples not built)";
  const std::string dir = ::testing::TempDir() + "mnsctl_cli_threads";
  const std::string snap = dir + "/net.mns";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  ASSERT_EQ(
      run_mnsctl("gen --family planar --size 24 --seed 5 -o " + snap).exit_code,
      0);
  // 576 vertices: full-graph rounds cross kParallelGrain, so width 4 really
  // stages through the pool. Everything but the width itself and wall clock
  // must match: rounds, messages and the payload digests.
  auto canonical = [&](int threads) {
    const CliResult r = run_mnsctl("solve " + snap +
                                   " --workload mst --threads " +
                                   std::to_string(threads));
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("\"threads\": " + std::to_string(threads) + ","),
              std::string::npos)
        << r.output;
    static const std::regex volatile_fields(
        "\"(threads|wall_ms)\": [-0-9.e+]+");
    return std::regex_replace(r.output, volatile_fields, "");
  };
  const std::string one = canonical(1);
  EXPECT_NE(one.find("\"rounds\""), std::string::npos) << one;
  EXPECT_NE(one.find("\"edges_fnv\""), std::string::npos) << one;
  EXPECT_EQ(canonical(4), one);
}

}  // namespace
