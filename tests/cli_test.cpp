//===- cli_test.cpp - bugassist CLI end-to-end tests --------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Drives the installed `bugassist` binary and holds it to the PR's
// acceptance bar: `bugassist localize` on a TCAS mutant reproduces the
// library-driver diagnosis byte for byte at every --threads width, and
// the input/report serializations of core/Pipeline.h are exactly what the
// CLI prints. Also covers the input-vector syntax and the sat subcommand.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtils.h"
#include "core/Pipeline.h"
#include "maxsat/Portfolio.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace bugassist;

using clitest::Cli;
using clitest::exitStatus;
using clitest::Instances;
using clitest::runCommand;

namespace {

/// Writes \p Text to a fresh temp file and returns its path.
std::string writeTempFile(const std::string &Text) {
  char Path[] = "/tmp/bugassist_cli_XXXXXX";
  int Fd = mkstemp(Path);
  EXPECT_GE(Fd, 0);
  EXPECT_EQ(write(Fd, Text.data(), Text.size()),
            static_cast<ssize_t>(Text.size()));
  close(Fd);
  return Path;
}

} // namespace

// --- input-vector syntax ------------------------------------------------------

TEST(InputVector, RendersAndParsesScalarsAndArrays) {
  InputVector In = {InputValue::scalar(3), InputValue::array({1, -2, 4}),
                    InputValue::scalar(-7)};
  std::string Text = renderInputVector(In);
  EXPECT_EQ(Text, "3,[1,-2,4],-7");
  std::string Error;
  auto Back = parseInputVector(Text, Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(*Back, In);
}

TEST(InputVector, ParsesEmptyAndWhitespace) {
  std::string Error;
  auto Empty = parseInputVector("", Error);
  ASSERT_TRUE(Empty.has_value());
  EXPECT_TRUE(Empty->empty());

  auto Spaced = parseInputVector(" 1 , [ 2 , 3 ] ", Error);
  ASSERT_TRUE(Spaced.has_value()) << Error;
  ASSERT_EQ(Spaced->size(), 2u);
  EXPECT_EQ((*Spaced)[1].Array, (std::vector<int64_t>{2, 3}));

  auto EmptyArray = parseInputVector("[]", Error);
  ASSERT_TRUE(EmptyArray.has_value()) << Error;
  EXPECT_TRUE((*EmptyArray)[0].Array.empty());
}

TEST(InputVector, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(parseInputVector("1,,2", Error).has_value());
  EXPECT_FALSE(parseInputVector("[1,2", Error).has_value());
  EXPECT_FALSE(parseInputVector("abc", Error).has_value());
  EXPECT_FALSE(parseInputVector("1 2", Error).has_value());
  EXPECT_FALSE(parseInputVector("[1,x]", Error).has_value());
}

// --- localize: byte-for-byte parity with the library driver -------------------

TEST(BugassistCli, LocalizeMatchesLibraryDriverAtEveryThreadCount) {
  // TCAS v2, the Figure 2 fault. Find one failing test the library way.
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(tcasMutants()[1].Source, Diags);
  ASSERT_TRUE(Golden && Faulty) << Diags.render();
  std::vector<InputVector> Pool = tcasTestPool(1600);
  FailingTests Failing = segregateFailingTests(
      goldenOutputs(*Golden, Pool, "main", tcasExecOptions()), *Faulty,
      Pool, "main", tcasExecOptions(), /*MaxTests=*/1);
  ASSERT_EQ(Failing.Inputs.size(), 1u);

  // The library-driver diagnosis through the pipeline seam.
  PipelineRequest R;
  R.Unroll = tcasUnrollOptions();
  R.Input = Failing.Inputs[0];
  R.GoldenReturn = Failing.Goldens[0];
  R.CheckObligations = false;
  R.Localize.MaxDiagnoses = 24;
  PipelineResult Lib = runLocalizePipeline(tcasMutants()[1].Source, R);
  ASSERT_EQ(Lib.Status, PipelineStatus::Localized);
  ASSERT_FALSE(Lib.Report.Diagnoses.empty());
  std::string Expected = "failing input: " +
                         renderInputVector(Lib.FailingInput) + "\n" +
                         renderLocalizationReport(Lib.Report);

  // The same run through the CLI, at several portfolio widths. HardLines
  // 69-84 is exactly tcasUnrollOptions()'s harness pinning.
  std::string Source = writeTempFile(tcasMutants()[1].Source);
  std::string Base =
      Cli + " localize " + Source + " --input \"" +
      renderInputVector(Failing.Inputs[0]) + "\" --golden " +
      std::to_string(Failing.Goldens[0]) +
      " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
      " --max-diagnoses 24";
  std::string First;
  for (size_t Threads : {1u, 2u, 4u}) {
    int Exit = 0;
    std::string Out =
        runCommand(Base + " --threads " + std::to_string(Threads), Exit);
    EXPECT_EQ(Exit, 0);
    EXPECT_EQ(Out, Expected) << "CLI diverged at --threads " << Threads;
    if (First.empty())
      First = Out;
    else
      EXPECT_EQ(Out, First) << "thread-count nondeterminism at " << Threads;
  }

  // The injected fault line must be among the suspects (Detect# = hit).
  for (uint32_t BugLine : tcasMutants()[1].BugLines)
    EXPECT_NE(First.find(" " + std::to_string(BugLine)), std::string::npos);

  std::remove(Source.c_str());
}

TEST(Pipeline, EveryEntryPointRunsTheSameSearch) {
  // The CI TCAS v2 query at width 1. The source, prepared-program and
  // trace-formula entry points all build the same session from the same
  // instance, so not only the reports but every solver counter agrees --
  // and so does the one-shot CLI's --stats output.
  const std::string &Source = tcasMutants()[1].Source;
  const char *Input = "1052,1,0,6677,118,1329,0,790,890,0,2,1";
  std::string Error;
  PipelineRequest R;
  R.Unroll = tcasUnrollOptions();
  R.Input = parseInputVector(Input, Error);
  R.GoldenReturn = 2;
  R.CheckObligations = false;
  R.Localize.MaxDiagnoses = 24;

  PipelineResult FromSource = runLocalizePipeline(Source, R);
  ASSERT_EQ(FromSource.Status, PipelineStatus::Localized);
  auto P = prepareProgram(Source, R.Entry, R.Unroll, R.Encode, Error);
  ASSERT_TRUE(P) << Error;
  PipelineResult FromPrepared = runLocalizePipeline(*P, R);
  ASSERT_EQ(FromPrepared.Status, PipelineStatus::Localized);
  LocalizationReport FromFormula = localizeFault(
      P->Driver->formula(), *R.Input, FromSource.SpecUsed, R.Localize);

  const LocalizationReport &Want = FromSource.Report;
  ASSERT_FALSE(Want.Diagnoses.empty());
  for (const LocalizationReport *Got : {&FromPrepared.Report, &FromFormula}) {
    EXPECT_EQ(renderLocalizationReport(*Got), renderLocalizationReport(Want));
    EXPECT_EQ(Got->SatCalls, Want.SatCalls);
    EXPECT_EQ(Got->Search.Conflicts, Want.Search.Conflicts);
    EXPECT_EQ(Got->Search.Propagations, Want.Search.Propagations);
    EXPECT_EQ(Got->Search.Decisions, Want.Search.Decisions);
    EXPECT_EQ(Got->Search.VarsEliminated, Want.Search.VarsEliminated);
    EXPECT_TRUE(Got->PortfolioWins.empty());
  }

  std::string Path = writeTempFile(Source);
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " localize " + Path + " --input \"" + Input +
          "\" --golden 2 --no-obligations --no-bounds --bitwidth 16"
          " --hard-lines 69-84 --max-diagnoses 24 --threads 1 --stats",
      Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_EQ(Out, renderLocalizeOutput(FromSource, /*Json=*/false) +
                     renderSearchStats(Want));
  std::remove(Path.c_str());

  // Wider, the factory builds a portfolio: same report, one win counter
  // per worker.
  LocalizeOptions Wide = R.Localize;
  Wide.Threads = 4;
  LocalizationReport Raced = localizeFault(P->Driver->formula(), *R.Input,
                                           FromSource.SpecUsed, Wide);
  EXPECT_EQ(renderLocalizationReport(Raced), renderLocalizationReport(Want));
  EXPECT_EQ(Raced.PortfolioWins.size(), 4u);
}

TEST(BugassistCli, LocalizeJsonContainsReport) {
  std::string Prog = writeTempFile("int Array[3];\n"
                                   "int main(int index) {\n"
                                   "  if (index != 1)\n"
                                   "    index = 2;\n"
                                   "  else\n"
                                   "    index = index + 2;\n"
                                   "  int i = index;\n"
                                   "  assert(i >= 0 && i < 3);\n"
                                   "  return Array[i];\n"
                                   "}\n");
  int Exit = 0;
  std::string Out = runCommand(Cli + " localize " + Prog + " --json", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("\"input\": \"1\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"suspect_lines\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"exhausted\": true"), std::string::npos) << Out;
  std::remove(Prog.c_str());
}

TEST(BugassistCli, LocalizeRejectsNonFailingInput) {
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  assert(x >= 0 || x < 0);\n"
                                   "  return x;\n"
                                   "}\n");
  int Exit = 0;
  runCommand(Cli + " localize " + Prog + " --input \"5\" 2>/dev/null", Exit);
  EXPECT_NE(Exit, 0); // nothing to localize: the spec holds
  std::remove(Prog.c_str());
}

TEST(BugassistCli, LocalizeRejectsTooDeepNestingWithoutASignal) {
  // 20k nested parentheses or ifs used to overflow the stack (SIGSEGV);
  // past the parser's nesting cap they are an ordinary compile error.
  for (const std::string &Open : {std::string("("), std::string("if (x) ")}) {
    std::string Body;
    for (int I = 0; I < 20000; ++I)
      Body += Open;
    Body = Open == "(" ? "return " + Body + "x" + std::string(20000, ')') + ";"
                      : Body + "x = 1; return x;";
    std::string Prog = writeTempFile("int main(int x) { " + Body + " }\n");
    int Exit = 0;
    std::string Out = runCommand(Cli + " localize " + Prog +
                                     " --input 1 --golden 0 2>&1 >/dev/null",
                                 Exit);
    EXPECT_TRUE(WIFEXITED(Exit)) << "killed by a signal: " << Open;
    EXPECT_EQ(clitest::exitStatus(Exit), 1) << Open;
    EXPECT_NE(Out.find("nesting too deep"), std::string::npos) << Out;
    std::remove(Prog.c_str());
  }
}

// --- sat / dump-tcas ----------------------------------------------------------

TEST(BugassistCli, SatDecidesCheckedInInstances) {
  int Exit = 0;
  std::string Out =
      runCommand(Cli + " sat " + Instances + "/mini.cnf", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("s SATISFIABLE\n"), std::string::npos) << Out;

  Out = runCommand(Cli + " sat " + Instances + "/mini_unsat.cnf --threads 2",
                   Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("s UNSATISFIABLE\n"), std::string::npos) << Out;
}

// --- resource budgets & the exit-code contract --------------------------------
//
// Documented contract: 0 complete, 1 input/usage error, 2 budget
// exhausted (best-so-far result printed).

namespace {

/// DIMACS CNF text of PHP(Holes + 1, Holes) -- UNSAT, and hopeless to
/// refute within a tiny budget for Holes >= 9.
std::string pigeonholeCnf(int Holes) {
  int Pigeons = Holes + 1;
  auto VarOf = [&](int P, int H) { return P * Holes + H + 1; };
  std::string Text;
  int NumClauses = Pigeons + Holes * (Pigeons * (Pigeons - 1) / 2);
  Text += "p cnf " + std::to_string(Pigeons * Holes) + " " +
          std::to_string(NumClauses) + "\n";
  for (int P = 0; P < Pigeons; ++P) {
    for (int H = 0; H < Holes; ++H)
      Text += std::to_string(VarOf(P, H)) + " ";
    Text += "0\n";
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        Text += "-" + std::to_string(VarOf(P1, H)) + " -" +
                std::to_string(VarOf(P2, H)) + " 0\n";
  return Text;
}

} // namespace

TEST(BugassistCli, BadBudgetFlagValuesExitOneWithNoOutput) {
  const std::string Wcnf = Instances + "/weighted.wcnf";
  for (const std::string &Flags :
       {std::string("--timeout 0"), std::string("--timeout abc"),
        std::string("--timeout -1"), std::string("--max-conflicts -1"),
        std::string("--max-conflicts notanumber"),
        std::string("--max-memory-mb 0"), std::string("--timeout")}) {
    int Exit = 0;
    std::string Out = runCommand(
        Cli + " maxsat " + Wcnf + " " + Flags + " 2>/dev/null", Exit);
    EXPECT_EQ(exitStatus(Exit), 1) << "flags: " << Flags;
    EXPECT_TRUE(Out.empty()) << "partial stdout for flags: " << Flags;
  }
}

TEST(BugassistCli, OptionValuesAreRangeCheckedLikeServe) {
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  assert(x != 3);\n"
                                   "  return x;\n"
                                   "}\n");
  // Rejected: a golden beyond int64 (serve's `golden` rejects it too), a
  // value flag given last, and an entry function the program lacks.
  for (const std::string &Flags :
       {std::string("--input 3 --golden 99999999999999999999999"),
        std::string("--input 3 --golden -99999999999999999999999"),
        std::string("--threads"), std::string("--entry nosuch")}) {
    int Exit = 0;
    std::string Out = runCommand(
        Cli + " localize " + Prog + " " + Flags + " 2>/dev/null", Exit);
    EXPECT_EQ(exitStatus(Exit), 1) << "flags: " << Flags;
    EXPECT_TRUE(Out.empty()) << "partial stdout for flags: " << Flags;
  }
  int Exit = 0;
  std::string Err = runCommand(
      Cli + " localize " + Prog + " --threads 2>&1 >/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
  EXPECT_NE(Err.find("missing value for --threads"), std::string::npos)
      << Err;
  std::remove(Prog.c_str());

  // Accepted: the engine serve defaults to, and the serve-wide conflict
  // ceiling.
  std::string Out = runCommand(Cli + " maxsat " + Instances +
                                   "/weighted.wcnf --engine auto"
                                   " --max-conflicts 18446744073709551615",
                               Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("o 2\ns OPTIMUM FOUND\n"), std::string::npos) << Out;
}

TEST(DimacsAnswer, CommentLinesAreTheOnlyCliExtra) {
  // A budget-stopped MaxSAT run with a proven lower bound: the CLI form
  // carries `c lower bound` between the o and s lines, the serve form is
  // the same bytes without it.
  MaxSatResult R;
  R.Status = MaxSatStatus::Unknown;
  R.LowerBound = 1;
  R.UpperBound = 3;
  R.BestModel = {LBool::True, LBool::False};
  EXPECT_EQ(renderMaxSatAnswer(R, 2, /*Model=*/true, /*Comments=*/true),
            "o 3\nc lower bound 1\ns UNKNOWN\nv 1 -2\n");
  EXPECT_EQ(renderMaxSatAnswer(R, 2, /*Model=*/true, /*Comments=*/false),
            "o 3\ns UNKNOWN\nv 1 -2\n");

  SatRaceResult S;
  S.Result = LBool::True;
  S.Winner = 1;
  S.PerWorker.resize(2);
  S.Model = {LBool::False, LBool::True};
  EXPECT_EQ(renderSatAnswer(S, 2, /*Model=*/true, /*Comments=*/true),
            "s SATISFIABLE\nc winner=worker 1\nv -1 2 0\n");
  EXPECT_EQ(renderSatAnswer(S, 2, /*Model=*/true, /*Comments=*/false),
            "s SATISFIABLE\nv -1 2 0\n");
}

TEST(BugassistCli, SatBudgetExhaustionExitsTwoWithUnknown) {
  std::string Cnf = writeTempFile(pigeonholeCnf(9));
  for (int Threads : {1, 2}) {
    int Exit = 0;
    std::string Out =
        runCommand(Cli + " sat " + Cnf + " --timeout 0.05 --threads " +
                       std::to_string(Threads),
                   Exit);
    EXPECT_EQ(exitStatus(Exit), 2) << "threads " << Threads;
    EXPECT_NE(Out.find("s UNKNOWN\n"), std::string::npos) << Out;
  }
  // The same instance without a budget still exits 0 on easy inputs: the
  // contract is about exhaustion, not about the flags being present.
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " sat " + Instances + "/mini.cnf --timeout 30", Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("s SATISFIABLE\n"), std::string::npos) << Out;
  std::remove(Cnf.c_str());
}

TEST(BugassistCli, MaxsatBudgetExhaustionIsAnytime) {
  // budget/budget_hard.wcnf is soft-PHP(10, 9): optimum 1, refutation hopeless.
  // A tiny deadline must exit 2 and still print an o-line upper bound
  // with its witnessing v-line, at every width.
  for (int Threads : {1, 2, 4}) {
    int Exit = 0;
    std::string Out =
        runCommand(Cli + " maxsat " + Instances +
                       "/budget/budget_hard.wcnf --timeout 0.05 --threads " +
                       std::to_string(Threads),
                   Exit);
    EXPECT_EQ(exitStatus(Exit), 2) << "threads " << Threads;
    EXPECT_NE(Out.find("\no "), std::string::npos)
        << "no anytime upper bound, threads " << Threads << "\n" << Out;
    EXPECT_NE(Out.find("s UNKNOWN\n"), std::string::npos) << Out;
    EXPECT_NE(Out.find("\nv "), std::string::npos)
        << "no witness model, threads " << Threads << "\n" << Out;
  }
  // A generous budget that never trips leaves complete runs at exit 0.
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " maxsat " + Instances + "/weighted.wcnf --timeout 30", Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("o 2\ns OPTIMUM FOUND\n"), std::string::npos) << Out;
}

TEST(BugassistCli, LocalizePartialReportIdenticalAcrossWidths) {
  // A microsecond deadline is already expired by the first budget poll in
  // every worker, so the INCOMPLETE report deterministically carries zero
  // diagnoses -- which is exactly what makes it byte-identical at every
  // portfolio width. (A conflict cap would NOT do: small rounds can
  // complete between the amortized polls, differently per width.)
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(tcasMutants()[1].Source, Diags);
  ASSERT_TRUE(Golden && Faulty) << Diags.render();
  std::vector<InputVector> Pool = tcasTestPool(1600);
  FailingTests Failing = segregateFailingTests(
      goldenOutputs(*Golden, Pool, "main", tcasExecOptions()), *Faulty,
      Pool, "main", tcasExecOptions(), /*MaxTests=*/1);
  ASSERT_EQ(Failing.Inputs.size(), 1u);

  std::string Source = writeTempFile(tcasMutants()[1].Source);
  std::string Base =
      Cli + " localize " + Source + " --input \"" +
      renderInputVector(Failing.Inputs[0]) + "\" --golden " +
      std::to_string(Failing.Goldens[0]) +
      " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
      " --timeout 0.000001";
  std::string First;
  for (size_t Threads : {1u, 2u, 4u}) {
    int Exit = 0;
    std::string Out =
        runCommand(Base + " --threads " + std::to_string(Threads), Exit);
    EXPECT_EQ(exitStatus(Exit), 2) << "threads " << Threads;
    EXPECT_NE(Out.find("INCOMPLETE: resource budget exhausted"),
              std::string::npos)
        << Out;
    if (First.empty())
      First = Out;
    else
      EXPECT_EQ(Out, First)
          << "partial report diverged at --threads " << Threads;
  }
  std::remove(Source.c_str());
}

TEST(BugassistCli, CounterexampleSearchHonorsTheQueryBudget) {
  // Without --input, localize first searches for a failing input by BMC.
  // Commutativity of a 10-bit multiply holds, so that search must refute
  // the assert -- tens of seconds of CDCL. Under a budget it has to stop
  // with exit 2 and an INCOMPLETE note, never claim "no spec violation".
  std::string Path =
      writeTempFile("int main(int x, int y) {\n  int a = x * y;\n"
                    "  int b = y * x;\n  assert(a == b);\n  return a;\n}\n");
  const std::string Base = Cli + " localize " + Path + " --bitwidth 10";
  for (const char *Budget : {" --max-conflicts 2000", " --timeout 0.5"}) {
    Timer T;
    int Exit = 0;
    std::string Out = runCommand(Base + Budget, Exit);
    EXPECT_EQ(exitStatus(Exit), 2) << Budget;
    EXPECT_EQ(Out, "INCOMPLETE: resource budget exhausted before the "
                   "counterexample search finished\n")
        << Budget;
    EXPECT_EQ(Out.find("no spec violation"), std::string::npos) << Budget;
    EXPECT_LT(T.seconds(), 20.0) << Budget;
  }
  std::remove(Path.c_str());
}

TEST(BugassistCli, DumpTcasRoundTripsThroughTheParser) {
  int Exit = 0;
  std::string Out = runCommand(Cli + " dump-tcas 2", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(Out, tcasMutants()[1].Source);

  Out = runCommand(Cli + " dump-tcas 0", Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(Out, tcasSource());
}

// --- repair -------------------------------------------------------------------

namespace {

/// `--input "..." --golden N` pairs for up to \p MaxTests failing tests of
/// a checked-in TCAS mutant, segregated from the session pool, followed
/// by up to \p MaxPassing passing pairs as regression witnesses (the
/// first input drives localization; the rest only screen candidates).
std::string tcasRepairArgs(size_t MutantIdx, size_t MaxTests,
                           size_t MaxPassing = 0) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  auto Faulty = parseAndAnalyze(tcasMutants()[MutantIdx].Source, Diags);
  EXPECT_TRUE(Golden && Faulty) << Diags.render();
  std::vector<InputVector> Pool = tcasTestPool(300);
  FailingTests Failing = segregateFailingTests(
      goldenOutputs(*Golden, Pool, "main", tcasExecOptions()), *Faulty,
      Pool, "main", tcasExecOptions(), MaxTests, MaxPassing);
  EXPECT_FALSE(Failing.Inputs.empty());
  std::string Args;
  for (size_t I = 0; I < Failing.Inputs.size(); ++I)
    Args += " --input \"" + renderInputVector(Failing.Inputs[I]) +
            "\" --golden " + std::to_string(Failing.Goldens[I]);
  for (size_t I = 0; I < Failing.PassingInputs.size(); ++I)
    Args += " --input \"" + renderInputVector(Failing.PassingInputs[I]) +
            "\" --golden " + std::to_string(Failing.PassingGoldens[I]);
  return Args;
}

} // namespace

TEST(BugassistCli, RepairTcasV1OperatorSwap) {
  // v1 weakens a `<=` boundary to `<`; `bugassist repair` must propose
  // the swap back on the recorded fault line.
  std::string Source = writeTempFile(tcasMutants()[0].Source);
  int Exit = 0;
  // v1 fails on almost nothing (one pool test), so passing regression
  // witnesses carry the screen against imposter fixes on correlated
  // branch conditions.
  std::string Out = runCommand(
      Cli + " repair " + Source + tcasRepairArgs(0, 24, /*MaxPassing=*/64) +
          " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84",
      Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  std::string Expected = "repair: line " +
                         std::to_string(tcasMutants()[0].BugLines[0]) +
                         ": '<' -> '<='";
  EXPECT_NE(Out.find(Expected), std::string::npos) << Out;
  EXPECT_NE(Out.find("fixed program:\n"), std::string::npos) << Out;
  std::remove(Source.c_str());
}

TEST(BugassistCli, RepairTcasV5OffByOneJson) {
  // v5 assigns advisory code 2 where 1 belongs: the paper's kappa-1 fix,
  // through the --json schema.
  std::string Source = writeTempFile(tcasMutants()[4].Source);
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " repair " + Source + tcasRepairArgs(4, 6) +
          " --no-obligations --no-bounds --bitwidth 16 --hard-lines 69-84"
          " --json",
      Exit);
  EXPECT_EQ(exitStatus(Exit), 0);
  EXPECT_NE(Out.find("\"found\": true"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"line\": " +
                     std::to_string(tcasMutants()[4].BugLines[0])),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"fix\": \"constant 2 -> 1\""), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"suspect_lines\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"truncated\": false"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"stats\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"candidates_tried\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"fixed_program\""), std::string::npos) << Out;
  std::remove(Source.c_str());
}

TEST(BugassistCli, RepairExitCodeContract) {
  // 1: usage error (no failing input given).
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  assert(x == 0);\n"
                                   "  return x;\n"
                                   "}\n");
  int Exit = 0;
  runCommand(Cli + " repair " + Prog + " 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);

  // 1: the input does not fail, so there is nothing to repair.
  runCommand(Cli + " repair " + Prog + " --input \"0\" 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
  std::remove(Prog.c_str());

  // 2: candidate budget truncated the search without a decided answer.
  std::string Hard = writeTempFile("int main(int x) {\n"
                                   "  assume(x >= 0 && x <= 7);\n"
                                   "  int y = 0;\n"
                                   "  assert(y == x * x);\n"
                                   "  return y;\n"
                                   "}\n");
  std::string Out = runCommand(
      Cli + " repair " + Hard + " --input \"2\" --max-candidates 1", Exit);
  EXPECT_EQ(exitStatus(Exit), 2);
  EXPECT_NE(Out.find("repair: NONE within candidate budget"),
            std::string::npos)
      << Out;
  std::remove(Hard.c_str());
}

// --- fuzz ---------------------------------------------------------------------

TEST(BugassistCli, FuzzTcasScorecardIsDeterministicAndMismatchFree) {
  int Exit = 0;
  std::string Cmd = Cli + " fuzz tcas --seed 1 --count 12 --pool 200";
  std::string Out = runCommand(Cmd, Exit);
  EXPECT_EQ(exitStatus(Exit), 0) << Out;
  EXPECT_NE(Out.find("\"subject\": \"tcas\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"generated\": 12"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"total\""), std::string::npos) << Out;
  // Zero thread-width / preprocess mismatches, by contract.
  EXPECT_EQ(Out.find("\"mismatches\": 1"), std::string::npos) << Out;

  std::string Again = runCommand(Cmd, Exit);
  EXPECT_EQ(Out, Again) << "scorecard must be byte-identical across runs";
}

TEST(BugassistCli, FuzzRejectsUnknownClass) {
  int Exit = 0;
  runCommand(Cli + " fuzz tcas --classes bogus 2>/dev/null", Exit);
  EXPECT_EQ(exitStatus(Exit), 1);
}

TEST(BugassistCli, FuzzRunsOnAFileSubject) {
  std::string Prog = writeTempFile("int main(int x) {\n"
                                   "  int y;\n"
                                   "  y = 0;\n"
                                   "  if (x < 5) {\n"
                                   "    y = 1;\n"
                                   "  }\n"
                                   "  return y;\n"
                                   "}\n");
  int Exit = 0;
  std::string Out = runCommand(
      Cli + " fuzz " + Prog + " --seed 3 --count 8 --pool 32", Exit);
  EXPECT_EQ(exitStatus(Exit), 0) << Out;
  EXPECT_NE(Out.find("\"generated\": 8"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("\"mismatches\": 1"), std::string::npos) << Out;
  std::remove(Prog.c_str());
}
