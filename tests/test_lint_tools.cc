// Ctest wrapper around simcheck's fixture corpus.
//
// The python self-test already compares per-file findings against
// expected.json; this wrapper re-states the per-rule totals in C++ so
// that editing expected.json (or deleting fixtures) cannot silently
// weaken the gate — the counts asserted here must move in the same
// commit, in a file reviewers read.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

#ifndef IOAT_SOURCE_DIR
#error "IOAT_SOURCE_DIR must point at the repository root"
#endif
#ifndef IOAT_PYTHON
#define IOAT_PYTHON "python3"
#endif

namespace {

struct RunResult {
    int exitCode = -1;
    std::string output;
};

RunResult
runTool(const std::string &args)
{
    const std::string cmd =
        std::string(IOAT_PYTHON) + " " + args + " 2>&1";
    RunResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return r;
    std::array<char, 4096> buf{};
    size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.output.append(buf.data(), n);
    const int status = pclose(pipe);
    r.exitCode = (status >= 0 && WIFEXITED(status))
                     ? WEXITSTATUS(status)
                     : -1;
    return r;
}

} // namespace

TEST(LintTools, SimcheckFixtureCorpusExactPerRuleCounts)
{
    const auto r = runTool(std::string(IOAT_SOURCE_DIR)
                           + "/tools/simcheck --self-test");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    // Exact per-rule totals over the fixture corpus.  If a fixture or
    // its expected.json changes, this line must change with it.
    EXPECT_NE(r.output.find("simcheck self-test counts: "
                            "coro-lifetime=3 float-tick=2 layering=6 "
                            "raw-new=5 raw-random=5 raw-stdout=9 "
                            "raw-thread=6 shard-safety=11 strong-type=3 "
                            "wall-clock=4\n"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("simcheck self-test OK"), std::string::npos)
        << r.output;
}
