//===- localize_test.cpp - Algorithm 1 end-to-end tests -------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/BugAssist.h"

#include "core/Ranking.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bugassist;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseAndAnalyze(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

bool containsLine(const std::vector<uint32_t> &Lines, uint32_t L) {
  return std::find(Lines.begin(), Lines.end(), L) != Lines.end();
}

// The paper's Program 1 (Section 2), with source lines:
//  1 int Array[3];
//  2 int main(int index) {
//  3   if (index != 1)
//  4     index = 2;
//  5   else
//  6     index = index + 2;
//  7   int i = index;
//  8   assert(i >= 0 && i < 3);
//  9   return Array[i];
// 10 }
const char *Program1 = "int Array[3];\n"
                       "int main(int index) {\n"
                       "  if (index != 1)\n"
                       "    index = 2;\n"
                       "  else\n"
                       "    index = index + 2;\n"
                       "  int i = index;\n"
                       "  assert(i >= 0 && i < 3);\n"
                       "  return Array[i];\n"
                       "}\n";

} // namespace

TEST(Localize, MotivatingExampleFindsTheBugLine) {
  auto P = compile(Program1);
  BugAssistDriver Driver(*P, "main");

  // Counterexample generation must produce the index == 1 failing test.
  auto Cex = Driver.findCounterexample(Spec{});
  ASSERT_TRUE(Cex.has_value());
  EXPECT_EQ((*Cex)[0].Scalar, 1);

  LocalizationReport R = localizeFault(Driver.formula(), *Cex, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());

  // Every diagnosis is a singleton: one line suffices for a fix.
  for (const Diagnosis &D : R.Diagnoses)
    EXPECT_EQ(D.Lines.size(), 1u);

  // The actual bug (line 6, index = index + 2) and the branch condition
  // (line 3) are both reported -- the paper's lines 4 and 1 respectively.
  EXPECT_TRUE(containsLine(R.AllLines, 6)) << "bug line missing";
  EXPECT_TRUE(containsLine(R.AllLines, 3)) << "branch line missing";

  // Localization beats the backward slice: the then-branch assignment
  // (line 4), which is in no failing trace and no CoMSS, is not blamed.
  EXPECT_FALSE(containsLine(R.AllLines, 4));

  // Enumeration terminates with "no more suspects".
  EXPECT_TRUE(R.Exhausted);
}

TEST(Localize, EnumerationBlocksPreviousDiagnoses) {
  auto P = compile(Program1);
  BugAssistDriver Driver(*P, "main");
  InputVector Fail{InputValue::scalar(1)};
  LocalizationReport R = localizeFault(Driver.formula(), Fail, Spec{});
  // Each diagnosis distinct.
  for (size_t I = 0; I < R.Diagnoses.size(); ++I)
    for (size_t J = I + 1; J < R.Diagnoses.size(); ++J)
      EXPECT_NE(R.Diagnoses[I].Lines, R.Diagnoses[J].Lines);
}

TEST(Localize, PassingTestYieldsNoDiagnoses) {
  auto P = compile(Program1);
  BugAssistDriver Driver(*P, "main");
  InputVector Pass{InputValue::scalar(0)};
  LocalizationReport R = localizeFault(Driver.formula(), Pass, Spec{});
  EXPECT_TRUE(R.Diagnoses.empty());
  EXPECT_TRUE(R.Exhausted);
}

TEST(Localize, GoldenOutputSpec) {
  // abs() with a classic negation bug on line 2: returns x for negatives.
  const char *Src = "int main(int x) {\n"
                    "  if (x < 0) return x;\n"
                    "  return x;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  Spec S;
  S.CheckObligations = false;
  S.GoldenReturn = 5; // golden: abs(-5) == 5
  InputVector Fail{InputValue::scalar(-5)};
  LocalizationReport R = localizeFault(Driver.formula(), Fail, S);
  ASSERT_FALSE(R.Diagnoses.empty());
  // Fixable at the return (line 2) or at the branch condition (line 2 as
  // well); line 2 must be blamed.
  EXPECT_TRUE(containsLine(R.AllLines, 2));
}

TEST(Localize, MultiLineDiagnosisWhenSingleLineCannotFix) {
  // Two independent wrong constants, both feeding a hard spec: no single
  // line can satisfy assert(a + b == 4) given a=9, b=9 -- wait, changing
  // just 'a' to -5 fixes it. Force a genuinely conjoint failure instead:
  // the spec pins each variable separately.
  const char *Src = "int main(int x) {\n"
                    "  int a = 9;\n"
                    "  int b = 9;\n"
                    "  assert(a == 1 && b == 2);\n"
                    "  return a + b;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  InputVector Fail{InputValue::scalar(0)};
  LocalizationReport R = localizeFault(Driver.formula(), Fail, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());
  // The only fix changes both line 2 and line 3 simultaneously.
  EXPECT_EQ(R.Diagnoses[0].Lines.size(), 2u);
  EXPECT_TRUE(containsLine(R.Diagnoses[0].Lines, 2));
  EXPECT_TRUE(containsLine(R.Diagnoses[0].Lines, 3));
}

TEST(Localize, WrongOperatorLocalized) {
  // Off-by-one comparison: should be x < 3 (lines chosen so the bug is on
  // line 3).
  const char *Src = "int main(int x) {\n"
                    "  assume(x >= 0 && x <= 3);\n"
                    "  bool ok = x <= 3;\n"
                    "  int y = ok ? x : 0;\n"
                    "  assert(y < 3);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  auto Cex = Driver.findCounterexample(Spec{});
  ASSERT_TRUE(Cex.has_value());
  EXPECT_EQ((*Cex)[0].Scalar, 3);
  LocalizationReport R = localizeFault(Driver.formula(), *Cex, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());
  EXPECT_TRUE(containsLine(R.AllLines, 3));
}

TEST(Localize, TrustedFunctionNeverBlamed) {
  const char *Src = "int lib(int v) { return v + 1; }\n"
                    "int main(int x) {\n"
                    "  int y = lib(x);\n"
                    "  assert(y == x);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  UnrollOptions UO;
  UO.TrustedFunctions.insert("lib");
  BugAssistDriver Driver(*P, "main", UO);
  InputVector Fail{InputValue::scalar(0)};
  LocalizationReport R = localizeFault(Driver.formula(), Fail, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());
  // Line 1 is inside the trusted library: it must never appear.
  EXPECT_FALSE(containsLine(R.AllLines, 1));
  // The call-site binding (line 3) can be blamed.
  EXPECT_TRUE(containsLine(R.AllLines, 3));
}

TEST(Localize, LoopBugLocalized) {
  // Sum of 1..n with the accumulation statement buggy (s + i + i).
  const char *Src = "int main(int n) {\n"
                    "  assume(n == 3);\n"
                    "  int s = 0;\n"
                    "  int i = 1;\n"
                    "  while (i <= n) {\n"
                    "    s = s + i + i;\n"
                    "    i = i + 1;\n"
                    "  }\n"
                    "  assert(s == 6);\n"
                    "  return s;\n"
                    "}\n";
  auto P = compile(Src);
  UnrollOptions UO;
  UO.MaxLoopUnwind = 5;
  BugAssistDriver Driver(*P, "main", UO);
  InputVector Fail{InputValue::scalar(3)};
  LocalizationReport R = localizeFault(Driver.formula(), Fail, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());
  EXPECT_TRUE(containsLine(R.AllLines, 6)) << "accumulation line missing";
}

TEST(Localize, MaxDiagnosesRespected) {
  auto P = compile(Program1);
  BugAssistDriver Driver(*P, "main");
  LocalizeOptions LO;
  LO.MaxDiagnoses = 1;
  LocalizationReport R =
      localizeFault(Driver.formula(), {InputValue::scalar(1)}, Spec{}, LO);
  EXPECT_EQ(R.Diagnoses.size(), 1u);
  EXPECT_FALSE(R.Exhausted);
}

TEST(Localize, WeightedAndFuMalikAgreeOnOptimalCost) {
  auto P = compile(Program1);
  BugAssistDriver Driver(*P, "main");
  InputVector Fail{InputValue::scalar(1)};
  LocalizeOptions FM;
  FM.MaxDiagnoses = 1;
  LocalizeOptions LS = FM;
  LS.Weighted = true;
  LocalizationReport A = localizeFault(Driver.formula(), Fail, Spec{}, FM);
  LocalizationReport B = localizeFault(Driver.formula(), Fail, Spec{}, LS);
  ASSERT_FALSE(A.Diagnoses.empty());
  ASSERT_FALSE(B.Diagnoses.empty());
  EXPECT_EQ(A.Diagnoses[0].Cost, B.Diagnoses[0].Cost);
}

TEST(Ranking, FrequencyAcrossFailingTests) {
  // Buggy clamp: upper bound checked with <= instead of < on line 2; all
  // failing tests blame line 2, so it must rank first.
  const char *Src = "int main(int x) {\n"
                    "  bool inRange = x >= 0 && x <= 10;\n"
                    "  int y = inRange ? x : 0;\n"
                    "  assert(y < 10);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  std::vector<InputVector> Fails = {{InputValue::scalar(10)}};
  RankingReport R = rankSuspects(Driver.formula(), Fails, Spec{});
  ASSERT_FALSE(R.Ranked.empty());
  EXPECT_EQ(R.Runs, 1u);
  bool Line2Ranked = false;
  for (const RankedLine &RL : R.Ranked)
    if (RL.Line == 2) {
      Line2Ranked = true;
      EXPECT_EQ(RL.Hits, 1u);
      EXPECT_DOUBLE_EQ(RL.Frequency, 1.0);
    }
  EXPECT_TRUE(Line2Ranked);
}
