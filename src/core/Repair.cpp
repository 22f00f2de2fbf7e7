//===- Repair.cpp - Automated repair suggestions -----------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Repair.h"

#include "lang/AstPrinter.h"
#include "lang/AstWalk.h"
#include "lang/Sema.h"
#include "sat/Solver.h"

#include <functional>
#include <set>

using namespace bugassist;

namespace {

/// One candidate mutation, addressed by expression ordinal.
struct Mutation {
  size_t Ordinal = 0;
  uint32_t Line = 0;
  bool IsConstant = false; ///< else operator swap
  int64_t NewConstant = 0;
  BinaryOp NewOp = BinaryOp::Add;
  std::string Description;
};

void planMutationsOnLine(Program &P, uint32_t Line, const RepairOptions &Opts,
                         std::vector<Mutation> &Plan) {
  forEachExpr(P, [&](Expr *E, size_t Ordinal) {
    if (E->loc().Line != Line)
      return;
    if (Opts.OffByOne) {
      if (auto *IL = dyn_cast<IntLiteral>(E)) {
        for (int64_t Delta : {+1, -1}) {
          Mutation M;
          M.Ordinal = Ordinal;
          M.Line = E->loc().Line;
          M.IsConstant = true;
          M.NewConstant = IL->value() + Delta;
          M.Description = "constant " + std::to_string(IL->value()) +
                          " -> " + std::to_string(M.NewConstant);
          Plan.push_back(std::move(M));
        }
      }
    }
    if (Opts.OperatorSwap) {
      if (auto *BE = dyn_cast<BinaryExpr>(E)) {
        for (BinaryOp NewOp : nearMissOps(BE->op())) {
          Mutation M;
          M.Ordinal = Ordinal;
          M.Line = E->loc().Line;
          M.NewOp = NewOp;
          M.Description = std::string("'") + binaryOpSpelling(BE->op()) +
                          "' -> '" + binaryOpSpelling(NewOp) + "'";
          Plan.push_back(std::move(M));
        }
      }
    }
  });
}

/// Collects the mutations to try, visiting candidate lines in diagnosis
/// order (Algorithm 2 iterates over BugLoc in the order CoMSSes were
/// reported, so the most likely fix location is mutated first).
std::vector<Mutation> planMutations(Program &P,
                                    const std::vector<uint32_t> &OrderedLines,
                                    const RepairOptions &Opts) {
  std::vector<Mutation> Plan;
  for (uint32_t Line : OrderedLines)
    planMutationsOnLine(P, Line, Opts, Plan);
  return Plan;
}

/// Applies \p M to a clone of \p P; returns nullptr if the mutant fails
/// Sema (e.g. a swap created a type error).
std::unique_ptr<Program> applyMutation(const Program &P, const Mutation &M) {
  auto Clone = cloneProgram(P);
  bool Applied = false;
  forEachExpr(*Clone, [&](Expr *E, size_t Ordinal) {
    if (Ordinal != M.Ordinal)
      return;
    if (M.IsConstant) {
      if (auto *IL = dyn_cast<IntLiteral>(E)) {
        IL->setValue(M.NewConstant);
        Applied = true;
      }
    } else if (auto *BE = dyn_cast<BinaryExpr>(E)) {
      BE->setOp(M.NewOp);
      Applied = true;
    }
  });
  if (!Applied)
    return nullptr;
  DiagEngine Diags;
  if (!analyzeProgram(*Clone, Diags))
    return nullptr;
  return Clone;
}

/// Sound per-line pre-filter on the prepared trace formula: freeing every
/// clause group of line L over-approximates any single-line mutation of L
/// within the encoding bounds, so if the failing test still cannot pass
/// (UNSAT), every candidate on L is doomed and is dropped before any
/// mutant formula gets built. One incremental solver carries the hard
/// clauses once; each line costs one solve under assumptions. Undef
/// (budget exhausted) keeps the line -- the filter only removes certainties.
void prescreenLines(const BugAssistDriver &Driver,
                    const InputVector &FailingTest, const Spec &S,
                    std::vector<uint32_t> &Lines, uint64_t ConflictBudget,
                    RepairStats &Stats) {
  const TraceFormula &TF = Driver.formula();
  MaxSatInstance Inst = TF.localizationInstance(FailingTest, S);
  const CnfFormula &F = TF.encoded().Formula;
  Solver Solve;
  Solve.ensureVars(Inst.NumVars);
  for (const Clause &C : Inst.Hard)
    if (!Solve.addClause(C))
      return; // hard core is contradictory; leave the funnel untouched
  if (ConflictBudget)
    Solve.setConflictBudget(ConflictBudget);
  std::vector<uint32_t> Kept;
  std::vector<Lit> Assumptions;
  for (uint32_t L : Lines) {
    Assumptions.clear();
    for (const ClauseGroup &G : F.groups())
      Assumptions.push_back(mkLit(G.Selector, /*Negated=*/G.Line == L));
    ++Stats.PrescreenSatCalls;
    if (Solve.solve(Assumptions) == LBool::False) {
      ++Stats.LinesScreenedOut;
      continue;
    }
    Kept.push_back(L);
  }
  Lines = std::move(Kept);
}

/// Shared Algorithm 2 body. \p PreparedDriver selects the pooled path:
/// localization and the line prescreen run on its ready-made formula
/// instead of rebuilding.
RepairResult repairCore(const Program &Prog,
                        const BugAssistDriver *PreparedDriver,
                        const std::string &Entry,
                        const std::vector<InputVector> &FailingTests,
                        const Spec &S,
                        const std::vector<int64_t> *GoldenPerTest,
                        const RepairOptions &Opts) {
  RepairResult Result;

  Spec S0 = S;
  if (GoldenPerTest && !GoldenPerTest->empty())
    S0.GoldenReturn = (*GoldenPerTest)[0];

  // Step 1 (Algorithm 2, line 1): localize unless lines were given. Keep
  // the lines in diagnosis order -- the first CoMSS is the most likely fix
  // location and is mutated first.
  std::vector<uint32_t> Lines = Opts.CandidateLines;
  if (Lines.empty() && !FailingTests.empty()) {
    LocalizationReport R;
    if (PreparedDriver) {
      R = localizeFault(PreparedDriver->formula(), FailingTests[0], S0,
                        Opts.Localize);
    } else {
      BugAssistDriver Driver(Prog, Entry, Opts.Unroll);
      ++Result.Stats.FormulaBuilds;
      R = localizeFault(Driver.formula(), FailingTests[0], S0, Opts.Localize);
    }
    std::set<uint32_t> Seen;
    for (const Diagnosis &D : R.Diagnoses)
      for (uint32_t L : D.Lines)
        if (Seen.insert(L).second)
          Lines.push_back(L);
  }
  Result.SuspectLines = Lines;
  Result.Stats.LinesConsidered = Lines.size();

  if (PreparedDriver && Opts.PrescreenLines && !FailingTests.empty())
    prescreenLines(*PreparedDriver, FailingTests[0], S0, Lines,
                   Opts.VerifyBudget, Result.Stats);

  // Step 2: plan and screen mutations.
  std::vector<Mutation> Plan =
      planMutations(const_cast<Program &>(Prog), Lines, Opts);
  Result.Stats.CandidatesPlanned = Plan.size();

  ExecOptions IOpts;
  IOpts.BitWidth = Opts.Unroll.BitWidth;
  IOpts.CheckArrayBounds = Opts.Unroll.CheckArrayBounds;
  IOpts.CheckDivByZero = false; // encoder-aligned
  if (Opts.MaxInterpSteps)
    IOpts.MaxSteps = Opts.MaxInterpSteps;

  for (const Mutation &M : Plan) {
    if (Result.CandidatesTried >= Opts.MaxCandidates) {
      Result.Truncated = true;
      break;
    }
    ++Result.CandidatesTried;
    std::unique_ptr<Program> Mutant = applyMutation(Prog, M);
    if (!Mutant) {
      ++Result.Stats.SemaRejected;
      continue;
    }

    // Screen: every failing test must now satisfy the spec concretely.
    Interpreter Interp(*Mutant, IOpts);
    bool AllPass = true;
    for (size_t T = 0; T < FailingTests.size() && AllPass; ++T) {
      ExecResult R = Interp.run(Entry, FailingTests[T]);
      if (R.Status != ExecStatus::Ok) {
        AllPass = false;
        break;
      }
      if (GoldenPerTest && R.ReturnValue != (*GoldenPerTest)[T])
        AllPass = false;
      else if (!GoldenPerTest && S.GoldenReturn &&
               R.ReturnValue != *S.GoldenReturn)
        AllPass = false;
    }
    if (!AllPass) {
      ++Result.Stats.TestScreenRejected;
      continue;
    }

    // Verify: bounded model checking must find no violation (Algorithm 2,
    // lines 6-9). With per-test goldens the global spec is obligations
    // only; the goldens were already screened above.
    Spec VerifySpec = S;
    if (GoldenPerTest)
      VerifySpec.GoldenReturn = std::nullopt;
    if (VerifySpec.CheckObligations || VerifySpec.GoldenReturn) {
      BugAssistDriver Verify(*Mutant, Entry, Opts.Unroll);
      ++Result.Stats.FormulaBuilds;
      Solver Solve;
      Solve.setConflictBudget(Opts.VerifyBudget);
      bool Decided = false;
      auto Cex =
          Verify.formula().findCounterexample(VerifySpec, Decided, Solve);
      if (Cex.has_value() || !Decided) {
        ++Result.Stats.BmcRejected;
        continue;
      }
    }

    Result.Found = true;
    Result.Suggestion.Line = M.Line;
    Result.Suggestion.Description = M.Description;
    Result.Suggestion.FixedProgram = std::move(Mutant);
    Result.Stats.CandidatesTried = Result.CandidatesTried;
    return Result;
  }
  Result.Stats.CandidatesTried = Result.CandidatesTried;
  return Result;
}

} // namespace

RepairResult bugassist::repairProgram(const Program &Prog,
                                      const std::string &Entry,
                                      const std::vector<InputVector> &FailingTests,
                                      const Spec &S,
                                      const std::vector<int64_t> *GoldenPerTest,
                                      const RepairOptions &Opts) {
  return repairCore(Prog, nullptr, Entry, FailingTests, S, GoldenPerTest,
                    Opts);
}

RepairResult bugassist::repairProgram(const Program &Prog,
                                      const BugAssistDriver &Driver,
                                      const std::string &Entry,
                                      const std::vector<InputVector> &FailingTests,
                                      const Spec &S,
                                      const std::vector<int64_t> *GoldenPerTest,
                                      const RepairOptions &Opts) {
  return repairCore(Prog, &Driver, Entry, FailingTests, S, GoldenPerTest,
                    Opts);
}
