//===- offbyone_repair.cpp - The strncat study (Section 6.3) -----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Program 2: MyFunCopy passes SIZE instead of SIZE-1 to strncat, so the
// library's guaranteed null termination writes one byte past the buffer.
// With the library trusted (its constraints hard), BugAssist blames the
// call site and the off-by-one synthesizer validates the SIZE-1 fix.
//
// Run:  ./example_offbyone_repair
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
  std::printf("=== Program 2 (array-based strncat misuse) ===\n%s\n",
              program2Source().c_str());

  DiagEngine Diags;
  auto Prog = parseAndAnalyze(program2Source(), Diags);
  if (!Prog) {
    std::printf("%s", Diags.render().c_str());
    return 1;
  }

  UnrollOptions UO;
  UO.BitWidth = 16;
  UO.MaxLoopUnwind = 10;
  UO.TrustedFunctions.insert(program2LibraryFunction());
  UO.HardLines = program2HardLines(); // the input-string setup is fixture

  // Find a failing execution: BMC locates an input string that drives the
  // out-of-bounds terminator write.
  BugAssistDriver Driver(*Prog, "main", UO);
  auto Cex = Driver.findCounterexample(Spec{});
  if (!Cex) {
    std::printf("no bounds violation found -- unexpected\n");
    return 1;
  }
  std::printf("failing input string:");
  for (const InputValue &V : *Cex)
    std::printf(" %lld", static_cast<long long>(V.Scalar));
  std::printf("\n");

  // Localize with library constraints hard (Section 6.3).
  LocalizationReport R = localizeFault(Driver.formula(), *Cex, Spec{});
  std::printf("suspect lines:");
  for (uint32_t L : R.AllLines)
    std::printf(" %u", L);
  std::printf("   (call site is line %u)\n", program2BugLine());

  // Synthesize the off-by-one fix (Algorithm 2).
  RepairOptions RO;
  RO.Unroll = UO;
  RO.OperatorSwap = false; // the paper's study tries constants only
  RepairResult Fix = repairProgram(*Prog, "main", {*Cex}, Spec{}, nullptr, RO);
  if (!Fix.Found) {
    std::printf("no repair validated (%zu candidates)\n",
                Fix.CandidatesTried);
    return 1;
  }
  std::printf("\nvalidated repair at line %u: %s\n", Fix.Suggestion.Line,
              Fix.Suggestion.Description.c_str());
  std::printf("\n=== Fixed program ===\n%s",
              printProgram(*Fix.Suggestion.FixedProgram).c_str());
  return 0;
}
