//===- quickstart.cpp - BugAssist-Repro in ~60 lines -------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Walks the whole pipeline of the paper's Figure 1 on the Section 2
// motivating example (Program 1):
//   mini-C source -> parse/sema -> BMC counterexample -> trace formula ->
//   partial MaxSAT -> CoMSS enumeration -> suspect lines -> repair.
//
// Run:  ./example_quickstart
//
//===----------------------------------------------------------------------===//

#include "core/BugAssist.h"
#include "core/Repair.h"
#include "lang/AstPrinter.h"
#include "lang/Sema.h"
#include "programs/SmallDemos.h"

#include <cstdio>

using namespace bugassist;

int main() {
  // Program 1: the array dereference is out of bounds when index == 1.
  const std::string &Source = program1Source();
  std::printf("=== Program under test ===\n%s\n", Source.c_str());

  DiagEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    std::printf("compilation failed:\n%s", Diags.render().c_str());
    return 1;
  }

  // Step 1 (Section 4.1): find a failing execution by bounded model
  // checking -- no test suite needed.
  BugAssistDriver Driver(*Prog, "main");
  std::optional<InputVector> Failing = Driver.findCounterexample(Spec{});
  if (!Failing) {
    std::printf("no counterexample found: the program verifies.\n");
    return 0;
  }
  std::printf("counterexample input: index = %lld\n",
              static_cast<long long>((*Failing)[0].Scalar));

  // Step 2 (Algorithm 1): enumerate minimal sets of suspect lines.
  LocalizationReport Report = localizeFault(Driver.formula(), *Failing, Spec{});
  std::printf("\n=== Suspects (CoMSS enumeration) ===\n");
  for (size_t I = 0; I < Report.Diagnoses.size(); ++I) {
    const Diagnosis &D = Report.Diagnoses[I];
    std::printf("diagnosis %zu (cost %llu): line%s", I + 1,
                static_cast<unsigned long long>(D.Cost),
                D.Lines.size() > 1 ? "s" : "");
    for (uint32_t L : D.Lines)
      std::printf(" %u", L);
    std::printf("\n");
  }
  std::printf("union of suspect lines:");
  for (uint32_t L : Report.AllLines)
    std::printf(" %u", L);
  std::printf("  (bug injected at line %u)\n", program1BugLine());

  // Step 3 (Algorithm 2): try common-error fixes on the suspects.
  RepairResult Fix = repairProgram(*Prog, "main", {*Failing}, Spec{});
  if (Fix.Found) {
    std::printf("\n=== Suggested repair ===\n");
    std::printf("line %u: %s\n", Fix.Suggestion.Line,
                Fix.Suggestion.Description.c_str());
    std::printf("\n=== Fixed program ===\n%s",
                printProgram(*Fix.Suggestion.FixedProgram).c_str());
  } else {
    std::printf("\nno off-by-one / operator repair validated "
                "(%zu candidates tried)\n",
                Fix.CandidatesTried);
  }
  return 0;
}
