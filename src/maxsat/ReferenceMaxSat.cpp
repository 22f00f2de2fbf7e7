//===- ReferenceMaxSat.cpp - Non-incremental MaxSAT baselines ----------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The seed's rebuild-per-round algorithms, preserved as baselines for
// differential tests and for bench_solvers' incremental-vs-rebuilt
// comparison. Deliberately NOT used by the production pipeline.
//
//===----------------------------------------------------------------------===//

#include "maxsat/ReferenceMaxSat.h"

#include "maxsat/Cardinality.h"
#include "sat/Solver.h"

#include <algorithm>
#include <cassert>

using namespace bugassist;

namespace {

void accumulate(SolverStats &Into, const SolverStats &From) {
  Into.Conflicts += From.Conflicts;
  Into.Decisions += From.Decisions;
  Into.Propagations += From.Propagations;
  Into.Restarts += From.Restarts;
  Into.RestartsBlocked += From.RestartsBlocked;
  Into.LearnedClauses += From.LearnedClauses;
  Into.DeletedLearnts += From.DeletedLearnts;
  Into.ClausesRemoved += From.ClausesRemoved;
  Into.GcRuns += From.GcRuns;
  Into.LbdSum += From.LbdSum;
  Into.LbdCount += From.LbdCount;
  Into.LbdTightened += From.LbdTightened;
  // Tier gauges are per-solver instantaneous counts; summing over the
  // discarded per-round solvers would be meaningless, so they stay 0.
}

void collectFalsifiedSoft(const MaxSatInstance &Inst, MaxSatResult &Res) {
  Res.FalsifiedSoft.clear();
  uint64_t Cost = 0;
  for (size_t I = 0; I < Inst.Soft.size(); ++I) {
    if (!clauseSatisfied(Inst.Soft[I].Lits, Res.Model)) {
      Res.FalsifiedSoft.push_back(I);
      Cost += Inst.Soft[I].Weight;
    }
  }
  Res.Cost = Cost;
}

uint64_t modelCost(const MaxSatInstance &Inst,
                   const std::vector<LBool> &Model) {
  uint64_t Cost = 0;
  for (const SoftClause &S : Inst.Soft)
    if (!clauseSatisfied(S.Lits, Model))
      Cost += S.Weight;
  return Cost;
}

} // namespace

MaxSatResult bugassist::referenceSolveFuMalik(const MaxSatInstance &Inst,
                                              uint64_t ConflictBudget) {
  MaxSatResult Res;

  // Working copies: soft clauses accumulate relaxation literals; extra hard
  // clauses accumulate exactly-one constraints.
  std::vector<Clause> WorkingSoft;
  WorkingSoft.reserve(Inst.Soft.size());
  for (const SoftClause &S : Inst.Soft)
    WorkingSoft.push_back(S.Lits);
  std::vector<Clause> ExtraHard;
  int NextVar = Inst.NumVars;
  uint64_t Rounds = 0;

  for (;;) {
    // Build a fresh solver over the working formula. Each soft clause i is
    // guarded by assumption literal A_i via the hard clause (C_i \/ ~A_i);
    // assuming A_i enforces C_i, and a final conflict yields a core over
    // the A_i, i.e., over soft clauses.
    Solver S{Solver::Options::seed()}; // the rebuild-per-round baseline pins
                                       // the seed search policies
    S.ensureVars(NextVar);
    bool HardOk = true;
    for (const Clause &C : Inst.Hard)
      if (!S.addClause(C)) {
        HardOk = false;
        break;
      }
    if (HardOk)
      for (const Clause &C : ExtraHard)
        if (!S.addClause(C)) {
          HardOk = false;
          break;
        }
    if (!HardOk) {
      accumulate(Res.Search, S.stats());
      Res.Status = MaxSatStatus::HardUnsat;
      Res.LowerBound = Res.UpperBound = UINT64_MAX;
      return Res;
    }

    std::vector<Lit> Assumptions;
    std::vector<Var> AssumpVarOf(WorkingSoft.size(), NullVar);
    bool GuardsOk = true;
    for (size_t I = 0; I < WorkingSoft.size() && GuardsOk; ++I) {
      Var A = S.newVar();
      AssumpVarOf[I] = A;
      Clause Guarded = WorkingSoft[I];
      Guarded.push_back(mkLit(A, /*Negated=*/true));
      GuardsOk = S.addClause(std::move(Guarded));
      Assumptions.push_back(mkLit(A));
    }
    if (!GuardsOk) {
      // A guarded clause can only break the solver if hard clauses force
      // both the guard... impossible since A is fresh; defensive only.
      accumulate(Res.Search, S.stats());
      Res.Status = MaxSatStatus::HardUnsat;
      Res.LowerBound = Res.UpperBound = UINT64_MAX;
      return Res;
    }

    for (Var V : Inst.PreferTrue)
      S.setPolarity(V, true);
    if (ConflictBudget)
      S.setConflictBudget(ConflictBudget);
    ++Res.SatCalls;
    LBool R = S.solve(Assumptions);
    accumulate(Res.Search, S.stats());

    if (R == LBool::Undef) {
      Res.Status = MaxSatStatus::Unknown;
      // Anytime bounds: each completed round proved one more soft clause
      // must be falsified, and all weights are >= 1.
      Res.LowerBound = Rounds;
      return Res;
    }
    if (R == LBool::True) {
      Res.Status = MaxSatStatus::Optimum;
      Res.Model.resize(Inst.NumVars);
      for (Var V = 0; V < Inst.NumVars; ++V)
        Res.Model[V] = S.modelValue(V);
      collectFalsifiedSoft(Inst, Res);
      Res.LowerBound = Res.UpperBound = Res.Cost;
      Res.BestModel = Res.Model;
      // Fu-Malik invariant: rounds of relaxation == optimal cost for
      // unit weights.
      assert(Res.FalsifiedSoft.size() == Rounds &&
             "Fu-Malik cost does not match falsified soft clauses");
      return Res;
    }

    // UNSAT: harvest the core over assumption literals.
    std::vector<size_t> CoreSoft;
    for (Lit FL : S.conflictCore()) {
      Var V = FL.var();
      for (size_t I = 0; I < AssumpVarOf.size(); ++I)
        if (AssumpVarOf[I] == V) {
          CoreSoft.push_back(I);
          break;
        }
    }
    std::sort(CoreSoft.begin(), CoreSoft.end());
    CoreSoft.erase(std::unique(CoreSoft.begin(), CoreSoft.end()),
                   CoreSoft.end());

    if (CoreSoft.empty()) {
      // Conflict involves no soft clause: hard part is UNSAT.
      Res.Status = MaxSatStatus::HardUnsat;
      Res.LowerBound = Res.UpperBound = UINT64_MAX;
      return Res;
    }

    // Relax: fresh r per core soft clause; exactly one r true.
    ClauseSink Sink{
        [&ExtraHard](Clause C) { ExtraHard.push_back(std::move(C)); },
        [&NextVar]() { return NextVar++; }};
    std::vector<Lit> Relax;
    for (size_t I : CoreSoft) {
      Lit RL = mkLit(NextVar++);
      WorkingSoft[I].push_back(RL);
      Relax.push_back(RL);
    }
    encodeExactlyOne(Relax, Sink);
    ++Rounds;
  }
}

MaxSatResult bugassist::referenceSolveLinear(const MaxSatInstance &Inst,
                                             uint64_t ConflictBudget) {
  MaxSatResult Res;

  // The relaxed instance: soft clause i becomes hard (C_i \/ R_i).
  std::vector<Clause> Hard = Inst.Hard;
  std::vector<Lit> RelaxLits;
  std::vector<uint64_t> Weights;
  int NumVars = Inst.NumVars;
  for (const SoftClause &S : Inst.Soft) {
    Lit RL = mkLit(NumVars++);
    Clause C = S.Lits;
    C.push_back(RL);
    Hard.push_back(std::move(C));
    if (S.Lits.size() == 1)
      Hard.push_back({~RL, ~S.Lits[0]});
    RelaxLits.push_back(RL);
    Weights.push_back(S.Weight);
  }

  std::vector<LBool> BestModel;
  bool HaveModel = false;
  uint64_t BestCost = 0;

  for (;;) {
    Solver S{Solver::Options::seed()}; // the rebuild-per-round baseline pins
                                       // the seed search policies
    S.ensureVars(NumVars);
    bool Ok = true;
    for (const Clause &C : Hard)
      if (!S.addClause(C)) {
        Ok = false;
        break;
      }
    if (Ok && HaveModel) {
      if (BestCost == 0)
        break; // cannot improve on zero
      ClauseSink Sink{[&S](Clause C) { S.addClause(std::move(C)); },
                      [&S]() { return S.newVar(); }};
      encodePbLeq(RelaxLits, Weights, BestCost - 1, Sink);
      Ok = S.okay();
    }

    if (!Ok) {
      accumulate(Res.Search, S.stats());
      if (HaveModel)
        break; // previous model is optimal
      Res.Status = MaxSatStatus::HardUnsat;
      Res.LowerBound = Res.UpperBound = UINT64_MAX;
      return Res;
    }

    for (Var V : Inst.PreferTrue)
      S.setPolarity(V, true);
    if (ConflictBudget)
      S.setConflictBudget(ConflictBudget);
    ++Res.SatCalls;
    LBool SatRes = S.solve();
    accumulate(Res.Search, S.stats());
    if (SatRes == LBool::Undef) {
      Res.Status = MaxSatStatus::Unknown;
      // Anytime bounds from the search state: every completed improvement
      // step proved optimum < BestCost was still open, and BestModel
      // witnesses the best cost seen.
      if (HaveModel) {
        Res.UpperBound = BestCost;
        Res.BestModel = BestModel;
      }
      return Res;
    }
    if (SatRes == LBool::False) {
      if (!HaveModel) {
        Res.Status = MaxSatStatus::HardUnsat;
        Res.LowerBound = Res.UpperBound = UINT64_MAX;
        return Res;
      }
      break; // BestModel is optimal
    }

    std::vector<LBool> Model(Inst.NumVars);
    for (Var V = 0; V < Inst.NumVars; ++V)
      Model[V] = S.modelValue(V);
    uint64_t Cost = modelCost(Inst, Model);
    assert((!HaveModel || Cost < BestCost) &&
           "linear search failed to improve");
    BestModel = std::move(Model);
    BestCost = Cost;
    HaveModel = true;
    if (BestCost == 0)
      break;
  }

  Res.Status = MaxSatStatus::Optimum;
  Res.Model = std::move(BestModel);
  Res.Cost = BestCost;
  Res.LowerBound = Res.UpperBound = BestCost;
  Res.BestModel = Res.Model;
  for (size_t I = 0; I < Inst.Soft.size(); ++I)
    if (!clauseSatisfied(Inst.Soft[I].Lits, Res.Model))
      Res.FalsifiedSoft.push_back(I);
  return Res;
}
