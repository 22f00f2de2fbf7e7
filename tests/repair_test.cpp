//===- repair_test.cpp - Algorithm 2 repair tests --------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Repair.h"

#include "core/Pipeline.h"
#include "interp/Interpreter.h"
#include "lang/Sema.h"
#include "programs/Tcas.h"
#include "programs/TcasMutants.h"

#include <gtest/gtest.h>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

} // namespace

TEST(Repair, OffByOneOnMotivatingExample) {
  // Paper Section 2: the fix for Program 1 is changing the constant 2 on
  // the else branch; kappa - 1 = 1 passes all inputs.
  const char *Src = "int Array[3];\n"
                    "int main(int index) {\n"
                    "  if (index != 1)\n"
                    "    index = 2;\n"
                    "  else\n"
                    "    index = index + 2;\n"
                    "  int i = index;\n"
                    "  assert(i >= 0 && i < 3);\n"
                    "  return Array[i];\n"
                    "}\n";
  auto P = compile(Src);
  RepairResult R =
      repairProgram(*P, "main", {{InputValue::scalar(1)}}, Spec{});
  ASSERT_TRUE(R.Found) << "tried " << R.CandidatesTried << " candidates";
  // Valid fixes exist on the branch condition (line 3) and the else-branch
  // constant (line 6, the paper's suggested kappa-1 fix); either passes
  // verification.
  EXPECT_TRUE(R.Suggestion.Line == 3u || R.Suggestion.Line == 6u)
      << "line " << R.Suggestion.Line << ": " << R.Suggestion.Description;

  // Whatever was chosen, the fixed program must pass every input.
  Interpreter I(*R.Suggestion.FixedProgram, ExecOptions{16});
  for (int64_t X = -4; X <= 4; ++X)
    EXPECT_EQ(I.run("main", {InputValue::scalar(X)}).Status, ExecStatus::Ok)
        << "x=" << X;
}

TEST(Repair, OperatorSwapBoundaryCheck) {
  // Classic boundary bug: <= should be <.
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 20);\n"
                    "  bool ok = x <= 10;\n"
                    "  int y = ok ? x : 0;\n"
                    "  assert(y < 10);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  RepairResult R =
      repairProgram(*P, "main", {{InputValue::scalar(10)}}, Spec{});
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Suggestion.Line, 3u);
  EXPECT_NE(R.Suggestion.Description.find("'<='"), std::string::npos)
      << R.Suggestion.Description;
}

TEST(Repair, StrncatStyleOffByOne) {
  // Section 6.3 shape: the last argument to a trusted copy routine is one
  // too large; the library writes a terminator one past the copied length.
  const char *Src =
      "int SIZE_BUG;\n"
      "void copyN(int dest[8], int src[8], int n) {\n"
      "  int k = 0;\n"
      "  while (k < n) { dest[k] = src[k]; k = k + 1; }\n"
      "  dest[n] = 0;\n"
      "}\n"
      "int main(int s0) {\n"
      "  int buf[8];\n"
      "  int data[8];\n"
      "  data[0] = s0;\n"
      "  copyN(buf, data, 8);\n"
      "  return buf[0];\n"
      "}\n";
  auto P = compile(Src);
  RepairOptions Opts;
  Opts.Unroll.MaxLoopUnwind = 10;
  Opts.Unroll.TrustedFunctions.insert("copyN");
  RepairResult R = repairProgram(*P, "main", {{InputValue::scalar(1)}},
                                 Spec{}, nullptr, Opts);
  ASSERT_TRUE(R.Found) << "suspects:" << R.SuspectLines.size();
  // The fix is at the call site (line 11): 8 -> 7; the library itself is
  // trusted and untouched.
  EXPECT_EQ(R.Suggestion.Line, 11u);
  EXPECT_NE(R.Suggestion.Description.find("8 -> 7"), std::string::npos)
      << R.Suggestion.Description;
}

TEST(Repair, GoldenOutputDrivenRepair) {
  // max() with inverted comparison; goldens come from the true max.
  const char *Src = "int main(int a, int b) {\n"
                    "  if (a < b) return a;\n"
                    "  return b;\n"
                    "}\n";
  auto P = compile(Src);
  std::vector<InputVector> Fails = {
      {InputValue::scalar(1), InputValue::scalar(5)},
      {InputValue::scalar(7), InputValue::scalar(2)},
  };
  std::vector<int64_t> Goldens = {5, 7};
  Spec S;
  S.CheckObligations = false;
  RepairResult R = repairProgram(*P, "main", Fails, S, &Goldens);
  ASSERT_TRUE(R.Found);
  // '<' -> '>' (or an equivalent swap) on line 2 fixes both tests.
  EXPECT_EQ(R.Suggestion.Line, 2u);
  Interpreter I(*R.Suggestion.FixedProgram, ExecOptions{16});
  EXPECT_EQ(I.run("main", Fails[0]).ReturnValue, 5);
  EXPECT_EQ(I.run("main", Fails[1]).ReturnValue, 7);
}

TEST(Repair, ReportsFailureWhenNoNearMissFixExists) {
  // The bug is a completely wrong algorithm; no single off-by-one or
  // operator swap can satisfy the spec for all inputs.
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 7);\n"
                    "  int y = 0;\n"
                    "  assert(y == x * x);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  RepairResult R =
      repairProgram(*P, "main", {{InputValue::scalar(2)}}, Spec{});
  EXPECT_FALSE(R.Found);
  EXPECT_FALSE(R.SuspectLines.empty()) << "localization should still work";
}

TEST(Repair, RespectsCandidateLineRestriction) {
  const char *Src = "int main(int x) {\n"
                    "  int a = 3;\n"
                    "  int b = 3;\n"
                    "  assert(a + b == 5);\n"
                    "  return a + b;\n"
                    "}\n";
  auto P = compile(Src);
  RepairOptions Opts;
  Opts.CandidateLines = {3}; // only allow touching line 3
  RepairResult R = repairProgram(*P, "main", {{InputValue::scalar(0)}},
                                 Spec{}, nullptr, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Suggestion.Line, 3u);
  EXPECT_NE(R.Suggestion.Description.find("3 -> 2"), std::string::npos);
}

TEST(Repair, MaxCandidatesBudget) {
  const char *Src = "int main(int x) {\n"
                    "  int y = x + 1;\n"
                    "  assert(y == x + 2);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  RepairOptions Opts;
  Opts.MaxCandidates = 0;
  RepairResult R = repairProgram(*P, "main", {{InputValue::scalar(0)}},
                                 Spec{}, nullptr, Opts);
  EXPECT_FALSE(R.Found);
  EXPECT_EQ(R.CandidatesTried, 0u);
  EXPECT_TRUE(R.Truncated) << "budget-cut must be flagged, not a decided no";
}

// --- pooled path --------------------------------------------------------------

TEST(RepairPooled, MatchesRebuildOverload) {
  // Same program, same failing tests: the pooled overload must land on
  // the same suggestion as the rebuild-everything reference path.
  const char *Src = "int main(int a, int b) {\n"
                    "  if (a < b) return a;\n"
                    "  return b;\n"
                    "}\n";
  auto P = compile(Src);
  std::vector<InputVector> Fails = {
      {InputValue::scalar(1), InputValue::scalar(5)},
      {InputValue::scalar(7), InputValue::scalar(2)},
  };
  std::vector<int64_t> Goldens = {5, 7};
  Spec S;
  S.CheckObligations = false;

  RepairResult Ref = repairProgram(*P, "main", Fails, S, &Goldens);
  BugAssistDriver Driver(*P, "main");
  RepairResult Pooled =
      repairProgram(*P, Driver, "main", Fails, S, &Goldens);
  ASSERT_TRUE(Ref.Found);
  ASSERT_TRUE(Pooled.Found);
  EXPECT_EQ(Pooled.Suggestion.Line, Ref.Suggestion.Line);
  EXPECT_EQ(Pooled.Suggestion.Description, Ref.Suggestion.Description);
  // The pooled path never unrolls+encodes for localization, and with a
  // goldens-only spec the BMC verification is skipped too: zero formula
  // builds, versus one for the rebuild path's localization.
  EXPECT_EQ(Pooled.Stats.FormulaBuilds, 0u);
  EXPECT_EQ(Ref.Stats.FormulaBuilds, 1u);
  EXPECT_GT(Pooled.Stats.PrescreenSatCalls, 0u);
}

TEST(RepairPooled, PrescreenIsHarmlessWhenDisabled) {
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 20);\n"
                    "  bool ok = x <= 10;\n"
                    "  int y = ok ? x : 0;\n"
                    "  assert(y < 10);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  std::vector<InputVector> Fails = {{InputValue::scalar(10)}};

  RepairOptions On;
  RepairResult WithScreen =
      repairProgram(*P, Driver, "main", Fails, Spec{}, nullptr, On);
  RepairOptions Off;
  Off.PrescreenLines = false;
  RepairResult WithoutScreen =
      repairProgram(*P, Driver, "main", Fails, Spec{}, nullptr, Off);

  ASSERT_TRUE(WithScreen.Found);
  ASSERT_TRUE(WithoutScreen.Found);
  EXPECT_EQ(WithScreen.Suggestion.Line, WithoutScreen.Suggestion.Line);
  EXPECT_EQ(WithScreen.Suggestion.Description,
            WithoutScreen.Suggestion.Description);
  EXPECT_EQ(WithoutScreen.Stats.PrescreenSatCalls, 0u);
  // The prescreen only ever narrows the candidate plan.
  EXPECT_LE(WithScreen.Stats.CandidatesPlanned,
            WithoutScreen.Stats.CandidatesPlanned);
}

namespace {

/// Failing tests for a checked-in TCAS mutant, segregated from the
/// session pool exactly as the bench/serve stack does, with regression
/// witnesses for the candidate screen flattened in behind them.
FailingTests tcasFailingTests(const Program &Faulty, size_t MaxTests,
                              size_t MaxPassing = 0) {
  DiagEngine Diags;
  auto Golden = parseAndAnalyze(tcasSource(), Diags);
  EXPECT_TRUE(Golden != nullptr);
  std::vector<InputVector> Pool = tcasTestPool(300);
  FailingTests FT = segregateFailingTests(
      goldenOutputs(*Golden, Pool, "main", tcasExecOptions()), Faulty,
      Pool, "main", tcasExecOptions(), MaxTests, MaxPassing);
  for (size_t T = 0; T < FT.PassingInputs.size(); ++T) {
    FT.Inputs.push_back(FT.PassingInputs[T]);
    FT.Goldens.push_back(FT.PassingGoldens[T]);
  }
  return FT;
}

} // namespace

TEST(RepairPooled, TcasV1OperatorSwapKnownAnswer) {
  // v1 weakens `Own_Tracked_Alt_Rate <= 600` to `<`; the near-miss swap
  // restores the boundary on the recorded fault line.
  const TcasMutant &V = tcasMutants()[0];
  ASSERT_EQ(V.Version, 1);
  auto P = compile(V.Source);
  // A boundary bug fails on almost nothing (one pool test), so failing
  // witnesses alone cannot screen out imposter fixes on correlated branch
  // conditions: regression witnesses do.
  FailingTests FT = tcasFailingTests(*P, 24, /*MaxPassing=*/64);
  ASSERT_FALSE(FT.Inputs.empty()) << "v1 must fail on the session pool";

  BugAssistDriver Driver(*P, "main", tcasUnrollOptions());
  Spec S;
  S.CheckObligations = false;
  RepairOptions RO;
  RO.Unroll = tcasUnrollOptions();
  RO.MaxCandidates = 128;
  RepairResult R =
      repairProgram(*P, Driver, "main", FT.Inputs, S, &FT.Goldens, RO);
  ASSERT_TRUE(R.Found) << "tried " << R.CandidatesTried;
  EXPECT_EQ(R.Suggestion.Line, V.BugLines[0]);
  EXPECT_NE(R.Suggestion.Description.find("'<' -> '<='"), std::string::npos)
      << R.Suggestion.Description;
}

TEST(RepairPooled, TcasV5OffByOneKnownAnswer) {
  // v5 assigns the downward advisory code (2) where the upward one (1)
  // belongs; kappa-1 is the paper's off-by-one fix.
  const TcasMutant &V = tcasMutants()[4];
  ASSERT_EQ(V.Version, 5);
  auto P = compile(V.Source);
  FailingTests FT = tcasFailingTests(*P, 6);
  ASSERT_FALSE(FT.Inputs.empty()) << "v5 must fail on the session pool";

  BugAssistDriver Driver(*P, "main", tcasUnrollOptions());
  Spec S;
  S.CheckObligations = false;
  RepairOptions RO;
  RO.Unroll = tcasUnrollOptions();
  RO.MaxCandidates = 128;
  RepairResult R =
      repairProgram(*P, Driver, "main", FT.Inputs, S, &FT.Goldens, RO);
  ASSERT_TRUE(R.Found) << "tried " << R.CandidatesTried;
  EXPECT_EQ(R.Suggestion.Line, V.BugLines[0]);
  EXPECT_NE(R.Suggestion.Description.find("2 -> 1"), std::string::npos)
      << R.Suggestion.Description;
}
