// Exit-code taxonomy of the run_model CLI, pinned end to end against
// the real binary (TIGAT_RUN_MODEL_BIN, wired in CMakeLists.txt):
//
//   0  all purposes winnable / campaign PASS
//   1  usage error, model error, or unwinnable purpose
//   2  I/O error
//   3  solver resource limit
//   4  campaign FAIL
//   5  campaign FLAKY / UNRESPONSIVE
//
// The regression this guards: an unsupported purpose/option combo must
// exit with the usage/model code 1 — never leak out as the solver-limit
// code 3 — and safety purposes (`control: A[] φ`) go through the whole
// solve → compile → serve → campaign pipeline with the same taxonomy
// as reachability ones.  The smart_light_safety watchdog model solves
// in milliseconds, so driving the real binary stays cheap.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/wait.h>

namespace {

const std::string kBin = TIGAT_RUN_MODEL_BIN;
const std::string kSafetyModel =
    std::string(TIGAT_MODEL_DIR) + "/smart_light_safety.tg";
const std::string kReachModel =
    std::string(TIGAT_MODEL_DIR) + "/smart_light.tg";

int run_cli(const std::string& args) {
  const std::string cmd = kBin + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(RunModelCli, NoArgumentsIsUsageError) {
  EXPECT_EQ(run_cli(""), 1);
}

TEST(RunModelCli, MissingModelFileIsModelError) {
  EXPECT_EQ(run_cli("/no/such/model.tg"), 1);
}

TEST(RunModelCli, MalformedPurposeIsModelError) {
  EXPECT_EQ(run_cli(kSafetyModel + " \"control: A[] IUT.Nowhere\""), 1);
}

TEST(RunModelCli, WinnableSafetyPurposeSolves) {
  EXPECT_EQ(run_cli(kSafetyModel), 0);
}

// `A[] IUT.Off` is unwinnable (the lamp starts On): must be the
// usage/model code 1, not the solver-limit code 3.
TEST(RunModelCli, UnwinnableSafetyPurposeIsNotSolverLimit) {
  EXPECT_EQ(run_cli(kSafetyModel + " \"control: A[] IUT.Off\""), 1);
}

TEST(RunModelCli, OutOfRangeMutantIsUsageError) {
  EXPECT_EQ(run_cli(kSafetyModel + " --runs=1 --mutant=99"), 1);
}

TEST(RunModelCli, SafetyCampaignPassesOnConformingIut) {
  EXPECT_EQ(run_cli(kSafetyModel + " --runs=1 --pass-ticks=2000"), 0);
}

// Mutant 1 emits off! before its watchdog window opens — a sound
// safety FAIL, surfaced as the campaign FAIL code 4.
TEST(RunModelCli, SafetyCampaignFailsOnMutant) {
  EXPECT_EQ(run_cli(kSafetyModel + " --runs=1 --pass-ticks=2000 --mutant=1"),
            4);
}

// A safety .tgs round-trips through the serving path against its own
// model, and is rejected (code 1, fingerprint mismatch) against a
// different one.
TEST(RunModelCli, SafetyStrategyServesAndPinsItsModel) {
  const std::string tgs =
      ::testing::TempDir() + "/run_model_cli_safety.tgs";
  ASSERT_EQ(run_cli(kSafetyModel + " --strategy-out=" + tgs), 0);
  EXPECT_EQ(run_cli(kSafetyModel + " --strategy-in=" + tgs), 0);
  EXPECT_EQ(run_cli(kReachModel + " --strategy-in=" + tgs), 1);
  std::remove(tgs.c_str());
}

// ── subcommand forms ────────────────────────────────────────────────
// `run_model [solve|serve|run|campaign|explain] MODEL` maps 1:1 onto
// the flag interface and keeps the exit taxonomy; the bare legacy form
// above stays supported verbatim.

TEST(RunModelCli, SolveSubcommandMatchesLegacyForm) {
  EXPECT_EQ(run_cli("solve " + kSafetyModel), 0);
  EXPECT_EQ(run_cli("solve " + kSafetyModel + " \"control: A[] IUT.Off\""),
            1);
}

TEST(RunModelCli, UnknownSubcommandIsUsageError) {
  EXPECT_EQ(run_cli("frobnicate " + kSafetyModel), 1);
}

TEST(RunModelCli, SolveSubcommandRejectsCampaignFlags) {
  EXPECT_EQ(run_cli("solve " + kSafetyModel + " --runs=1"), 1);
}

TEST(RunModelCli, ServeSubcommandRequiresStrategyIn) {
  EXPECT_EQ(run_cli("serve " + kSafetyModel), 1);
}

TEST(RunModelCli, SubcommandPipelineRoundTrips) {
  const std::string tgs =
      ::testing::TempDir() + "/run_model_cli_sub.tgs";
  ASSERT_EQ(run_cli("solve " + kSafetyModel + " --strategy-out=" + tgs), 0);
  EXPECT_EQ(run_cli("serve " + kSafetyModel + " --strategy-in=" + tgs), 0);
  EXPECT_EQ(run_cli("run " + kSafetyModel + " --strategy-in=" + tgs +
                    " --pass-ticks=2000"),
            0);
  EXPECT_EQ(run_cli("campaign " + kSafetyModel + " --strategy-in=" + tgs +
                    " --runs=2 --pass-ticks=2000"),
            0);
  EXPECT_EQ(run_cli("campaign " + kSafetyModel + " --strategy-in=" + tgs +
                    " --runs=1 --pass-ticks=2000 --mutant=1"),
            4);
  std::remove(tgs.c_str());
}

// A data guard whose value leaves int64 is a model error (exit 1), not
// a silently wrapped comparison that solves.
TEST(RunModelCli, GuardOverflowIsModelError) {
  const std::string tg = ::testing::TempDir() + "/run_model_cli_overflow.tg";
  {
    std::FILE* f = std::fopen(tg.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "clock x;\n"
        "int[0,2000000000] v = 2000000000;\n"
        "process P controlled {\n"
        "  loc A;\n"
        "  loc B;\n"
        "  init A;\n"
        "  edge A -> B when v*v*v*v > 0;\n"
        "}\n"
        "control: A<> P.B;\n",
        f);
    std::fclose(f);
  }
  EXPECT_EQ(run_cli(tg), 1);
  std::remove(tg.c_str());
}

// ── .tgs format versioning at the CLI boundary ──────────────────────

// An old-format (v1/v2) strategy file is a "re-solve to migrate"
// usage/model condition — exit 1 — never the I/O/corruption code 2.
TEST(RunModelCli, LegacyStrategyFileSaysMigrateNotCorrupt) {
  const std::string tgs = ::testing::TempDir() + "/run_model_cli_v2.tgs";
  {
    // A bare v2 header: magic "TGSD", version 2, zeroed checksum/size.
    unsigned char stub[24] = {'T', 'G', 'S', 'D', 2, 0, 0, 0};
    std::FILE* f = std::fopen(tgs.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(stub, 1, sizeof stub, f), sizeof stub);
    std::fclose(f);
  }
  EXPECT_EQ(run_cli("serve " + kSafetyModel + " --strategy-in=" + tgs), 1);
  std::remove(tgs.c_str());
}

// A corrupt v3 image (bad checksum) is the I/O/corruption code 2.
TEST(RunModelCli, CorruptStrategyFileIsIoError) {
  const std::string tgs =
      ::testing::TempDir() + "/run_model_cli_corrupt.tgs";
  ASSERT_EQ(run_cli("solve " + kSafetyModel + " --strategy-out=" + tgs), 0);
  {
    std::FILE* f = std::fopen(tgs.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  EXPECT_EQ(run_cli("serve " + kSafetyModel + " --strategy-in=" + tgs), 2);
  std::remove(tgs.c_str());
}

// Numeric flags parse strictly: garbage, a negative where the flag
// takes none, or trailing characters are usage errors (exit 1) caught
// before anything runs — not a silent 0, and not a negative wrapped
// into a huge thread or retry count.
TEST(RunModelCli, HostileNumericFlagsAreUsageErrors) {
  EXPECT_EQ(run_cli(kSafetyModel + " --threads=-1"), 1);
  EXPECT_EQ(run_cli(kSafetyModel + " --threads=abc"), 1);
  EXPECT_EQ(run_cli(kSafetyModel + " --runs=1 --retries=-1"), 1);
  EXPECT_EQ(run_cli(kSafetyModel + " --runs=1x"), 1);
  EXPECT_EQ(run_cli(kSafetyModel + " --progress=abc"), 1);
  EXPECT_EQ(run_cli(kSafetyModel + " --progress=-1"), 1);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The solve and the compile both run on --threads workers, and the
// .tgs bytes do not depend on how many: LEP N=3 saves the same file at
// one thread and at four, and the metrics snapshot records the count.
TEST(RunModelCli, StrategyBytesAreIdenticalAcrossThreadCounts) {
  const std::string lep = std::string(TIGAT_MODEL_DIR) + "/lep.tg";
  std::string tgs[2];
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string base = ::testing::TempDir() + "/run_model_cli_lep3_t" +
                             std::to_string(threads);
    ASSERT_EQ(run_cli(lep + " --param N=3 --threads=" +
                      std::to_string(threads) + " --strategy-out=" + base +
                      ".tgs --metrics-out=" + base + ".json"),
              0);
    tgs[threads == 1 ? 0 : 1] = slurp(base + ".tgs");
    EXPECT_NE(slurp(base + ".json").find("\"solver.threads\": " +
                                         std::to_string(threads) + ","),
              std::string::npos);
    std::remove((base + ".tgs").c_str());
    std::remove((base + ".json").c_str());
  }
  EXPECT_FALSE(tgs[0].empty());
  EXPECT_TRUE(tgs[0] == tgs[1]) << "the .tgs files differ";
}

}  // namespace
