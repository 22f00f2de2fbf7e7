//===- valid_correction_test.cpp - CoMSS soundness properties ------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Properties tying the two views of a diagnosis together:
//  * every CoMSS reported by Algorithm 1 is a valid correction
//    (isValidCorrection accepts it);
//  * removing a line from a CoMSS breaks it (minimality);
//  * a line with no influence on the spec is never a valid correction.
//
//===----------------------------------------------------------------------===//

#include "core/BugAssist.h"

#include "lang/Sema.h"

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

TEST(ValidCorrection, EveryReportedCoMSSIsACorrection) {
  const char *Src = "int main(int x) {\n"
                    "  int a = x + 1;\n"
                    "  int b = a * 2;\n"
                    "  int c = b - x;\n"
                    "  assert(c == x + 1);\n"
                    "  return c;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  InputVector Fail{InputValue::scalar(0)};
  LocalizationReport R = localizeFault(Driver.formula(), Fail, Spec{});
  ASSERT_FALSE(R.Diagnoses.empty());
  for (const Diagnosis &D : R.Diagnoses)
    EXPECT_TRUE(isValidCorrection(Driver.formula(), Fail, Spec{}, D.Lines))
        << "CoMSS not a correction";
}

TEST(ValidCorrection, CoMSSIsMinimal) {
  // Two wrong constants, spec pins both: the CoMSS must contain both
  // lines, and neither alone is a correction.
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
  const Diagnosis &D = R.Diagnoses[0];
  ASSERT_EQ(D.Lines.size(), 2u);
  EXPECT_TRUE(isValidCorrection(Driver.formula(), Fail, Spec{}, D.Lines));
  for (uint32_t Drop : D.Lines) {
    std::vector<uint32_t> Partial;
    for (uint32_t L : D.Lines)
      if (L != Drop)
        Partial.push_back(L);
    EXPECT_FALSE(isValidCorrection(Driver.formula(), Fail, Spec{}, Partial))
        << "CoMSS minus line " << Drop << " should not fix the failure";
  }
}

TEST(ValidCorrection, IrrelevantLineIsNotACorrection) {
  const char *Src = "int main(int x) {\n"
                    "  int dead = x * 7;\n"
                    "  int y = x + 1;\n"
                    "  assert(y == x + 2);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  InputVector Fail{InputValue::scalar(0)};
  EXPECT_FALSE(isValidCorrection(Driver.formula(), Fail, Spec{}, {2}))
      << "a line the spec cannot observe is never a fix";
  EXPECT_TRUE(isValidCorrection(Driver.formula(), Fail, Spec{}, {3}));
}

TEST(ValidCorrection, EmptySetOnlyWorksForPassingTests) {
  const char *Src = "int main(int x) {\n"
                    "  assert(x < 5);\n"
                    "  return x;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  // Failing test: nothing to disable means no fix.
  EXPECT_FALSE(isValidCorrection(Driver.formula(), {InputValue::scalar(9)},
                                 Spec{}, {}));
  // Passing test: the empty set trivially "fixes" it.
  EXPECT_TRUE(isValidCorrection(Driver.formula(), {InputValue::scalar(1)},
                                Spec{}, {}));
}

TEST(ValidCorrection, BudgetExhaustionIsConservative) {
  const char *Src = "int main(int x) {\n"
                    "  int y = x * x;\n"
                    "  assert(y != 49);\n"
                    "  return y;\n"
                    "}\n";
  auto P = compile(Src);
  BugAssistDriver Driver(*P, "main");
  // A one-conflict budget usually cannot decide; the answer must then be
  // false (never a spurious "valid").
  bool R = isValidCorrection(Driver.formula(), {InputValue::scalar(7)},
                             Spec{}, {2}, /*ConflictBudget=*/1);
  bool Unbudgeted = isValidCorrection(Driver.formula(),
                                      {InputValue::scalar(7)}, Spec{}, {2});
  EXPECT_TRUE(Unbudgeted);
  EXPECT_TRUE(R == false || R == Unbudgeted);
}
