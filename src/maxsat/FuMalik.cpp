//===- FuMalik.cpp - Core-guided partial MaxSAT ------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The Fu-Malik algorithm [10], the unsatisfiability-core-guided procedure
// engineered into MSUnCORE [21] that the paper's implementation calls:
// repeatedly solve; while UNSAT, take an unsatisfiable core, attach a fresh
// relaxation variable to every soft clause in the core, constrain exactly
// one relaxation per round to fire, and charge one unit of cost.
//
// This implementation is fully incremental: ONE solver lives for the whole
// session. Hard clauses are loaded once; each soft clause is guarded by an
// assumption literal, and a relaxation round retires the stale guard (stops
// assuming it and releases it as root-level false, so the superseded
// guarded copy is satisfied trivially and reclaimed) before re-guarding the
// relaxed copy. Learned clauses, VSIDS activity, and saved phases survive
// every round -- and every blocking clause the CoMSS enumeration adds.
//
//===----------------------------------------------------------------------===//

#include "maxsat/MaxSat.h"

#include "maxsat/Canonical.h"
#include "maxsat/Cardinality.h"
#include "sat/Solver.h"

#include <algorithm>
#include <cassert>

using namespace bugassist;

bool bugassist::clauseSatisfied(const Clause &C,
                                const std::vector<LBool> &Model) {
  for (Lit L : C) {
    if (L.var() >= static_cast<Var>(Model.size()))
      continue;
    LBool B = Model[L.var()];
    if (L.negated())
      B = lboolNeg(B);
    if (B == LBool::True)
      return true;
  }
  return false;
}

namespace {

void collectFalsifiedSoft(const std::vector<SoftClause> &Soft,
                          MaxSatResult &Res) {
  Res.FalsifiedSoft.clear();
  uint64_t Cost = 0;
  for (size_t I = 0; I < Soft.size(); ++I) {
    if (!clauseSatisfied(Soft[I].Lits, Res.Model)) {
      Res.FalsifiedSoft.push_back(I);
      Cost += Soft[I].Weight;
    }
  }
  Res.Cost = Cost;
}

class FuMalikSessionImpl final : public MaxSatSession {
public:
  FuMalikSessionImpl(const MaxSatInstance &Inst, uint64_t ConflictBudget,
                     const Solver::Options &SolverOpts, bool Canonical)
      : S(SolverOpts), Reader(Inst), Soft(Inst.Soft), Canonical(Canonical) {
    S.ensureVars(Inst.NumVars);
    // Frozen contract (sat/Simplifier.h): the session keeps talking about
    // these variables after the first solve() -- guards are assumed,
    // soft/relaxation literals get re-added by later relaxation rounds,
    // canonicalization assumes unit soft literals, and blocking clauses
    // arrive through addHardClause -- so inprocessing must not eliminate
    // them. Inst.Frozen carries the caller's own late-bound variables.
    for (Var V : Inst.Frozen)
      S.setFrozen(V, true);
    for (const SoftClause &SC : Inst.Soft)
      for (Lit L : SC.Lits)
        S.setFrozen(L.var(), true);
    for (const Clause &C : Inst.Hard)
      if (!S.addClause(C)) {
        HardBroken = true;
        return;
      }
    // Guard each soft clause exactly once: assumption literal A_i enforces
    // C_i through the hard clause (C_i \/ ~A_i); a final conflict yields a
    // core over the A_i, i.e., over soft clauses.
    WorkingSoft.reserve(Soft.size());
    GuardOf.reserve(Soft.size());
    for (const SoftClause &SC : Soft) {
      WorkingSoft.push_back(SC.Lits);
      GuardOf.push_back(newGuard(GuardOf.size()));
      Clause Guarded = SC.Lits;
      Guarded.push_back(mkLit(GuardOf.back(), /*Negated=*/true));
      if (!S.addClause(Guarded))
        HardBroken = true; // impossible while A is fresh; defensive only
    }
    PreferTrue = Inst.PreferTrue;
    if (ConflictBudget)
      S.setConflictBudget(ConflictBudget);
  }

  bool addHardClause(const Clause &C) override {
    if (HardBroken)
      return false;
    HardBroken = !S.addClause(C);
    return !HardBroken;
  }

  const SolverStats &stats() const override { return S.stats(); }

  Solver &solver() override { return S; }

  /// Member-wise deep copy: the Solver copy carries the arena and learnt
  /// state, and every piece of relaxation bookkeeping (guards, working
  /// soft clauses, rounds) is a plain value. Root level only.
  std::unique_ptr<MaxSatSession> clone() const override {
    return std::unique_ptr<MaxSatSession>(new FuMalikSessionImpl(*this));
  }

  MaxSatResult solve() override {
    MaxSatResult Res;
    for (; !HardBroken;) {
      std::vector<Lit> Assumptions;
      Assumptions.reserve(GuardOf.size());
      for (Var A : GuardOf)
        Assumptions.push_back(mkLit(A));
      // Phase saving overwrites polarities during search; re-seed the
      // "program as written" bias before every descent, exactly as the
      // per-round solver rebuild used to.
      for (Var V : PreferTrue)
        S.setPolarity(V, true);
      ++Res.SatCalls;
      LBool R = S.solve(Assumptions);

      if (R == LBool::Undef) {
        Res.Status = MaxSatStatus::Unknown;
        // Every completed round proved one more soft clause must be
        // falsified, and all weights are >= 1.
        Res.LowerBound = Rounds;
        harvestUpperBound(Res);
        break;
      }
      if (R == LBool::True) {
        Res.Status = MaxSatStatus::Optimum;
        if (Canonical && Rounds > 0) {
          Reader.readSoft(S, Res.Model);
          canonicalize(Assumptions, Res);
        }
        // The solver keeps the last True model, so this read equals the
        // witness canonicalization ended on.
        Reader.read(S, Res.Model);
        collectFalsifiedSoft(Soft, Res);
        // Fu-Malik invariant: relaxation rounds == optimal cost for unit
        // weights. Holds across incremental blocking clauses too, since
        // Rounds accumulates over the session exactly as the optimum does.
        assert(Res.FalsifiedSoft.size() == Rounds &&
               "Fu-Malik cost does not match falsified soft clauses");
        break;
      }

      // UNSAT: harvest the core over assumption literals via the
      // direct-indexed var -> soft map (no nested scan).
      std::vector<size_t> CoreSoft;
      for (Lit FL : S.conflictCore()) {
        Var V = FL.var();
        if (V < static_cast<Var>(SoftIdxOfVar.size()) && SoftIdxOfVar[V] >= 0)
          CoreSoft.push_back(static_cast<size_t>(SoftIdxOfVar[V]));
      }
      std::sort(CoreSoft.begin(), CoreSoft.end());
      CoreSoft.erase(std::unique(CoreSoft.begin(), CoreSoft.end()),
                     CoreSoft.end());

      if (CoreSoft.empty()) {
        // Conflict involves no soft clause: hard part is UNSAT.
        Res.Status = MaxSatStatus::HardUnsat;
        break;
      }

      // Relax: fresh r per core soft clause; exactly one r true. The old
      // guard is retired -- dropped from the assumptions and fixed false at
      // the root, which satisfies the superseded guarded copy so the solver
      // reclaims it -- and the relaxed copy goes in under a fresh guard.
      ClauseSink Sink{[this](Clause C) { S.addClause(C); },
                      [this]() { return S.newVar(); }};
      std::vector<Lit> Relax;
      Relax.reserve(CoreSoft.size());
      for (size_t I : CoreSoft) {
        Var OldGuard = GuardOf[I];
        SoftIdxOfVar[OldGuard] = -1;
        S.releaseVar(mkLit(OldGuard, /*Negated=*/true));

        Lit RL = mkLit(S.newVar());
        S.setFrozen(RL.var(), true); // future relaxed copies re-mention it
        WorkingSoft[I].push_back(RL);
        Relax.push_back(RL);

        GuardOf[I] = newGuard(I);
        Clause Guarded = WorkingSoft[I];
        Guarded.push_back(mkLit(GuardOf[I], /*Negated=*/true));
        S.addClause(Guarded);
      }
      encodeExactlyOne(Relax, Sink);
      ++Rounds;
      if (!S.okay()) {
        Res.Status = MaxSatStatus::HardUnsat;
        break;
      }
    }
    if (HardBroken)
      Res.Status = MaxSatStatus::HardUnsat;
    if (Res.Status == MaxSatStatus::Optimum) {
      Res.LowerBound = Res.UpperBound = Res.Cost;
      Res.BestModel = Res.Model;
    } else if (Res.Status == MaxSatStatus::HardUnsat) {
      Res.LowerBound = Res.UpperBound = UINT64_MAX;
    }
    Res.Search = S.stats();
    return Res;
  }

private:
  /// Canonicalizes the optimum (see Canonical.h). Probes run under the
  /// live guards: any guard-satisfying model falsifies exactly Rounds soft
  /// clauses -- each relaxation round's exactly-one constraint activates
  /// one relaxation literal, capping falsification at Rounds, while the
  /// optimum bounds it from below -- so no explicit cost bound is needed.
  ///
  /// Probe answers are a pure function of (hard clauses, optimum), not of
  /// this session's relaxation history, which is what makes the canonical
  /// set identical across diversified portfolio workers: every
  /// original-optimal falsified set F is representable in ANY terminal
  /// relaxation structure. Inductively, a partial witness falsifying the
  /// unmatched remainder G of F (guards of G off, earlier elements of F
  /// matched to earlier rounds) would satisfy the next core's formula
  /// outright if that core missed G -- contradicting the core's
  /// unsatisfiability -- so each round's core intersects G, one element of
  /// F moves onto the fresh relaxation literal, and after Rounds rounds F
  /// has a perfect matching into the rounds (Hall's condition holds).
  void canonicalize(const std::vector<Lit> &Guards, MaxSatResult &Res) {
    CanonicalHooks Hooks;
    Hooks.Probe = [&](const std::vector<Lit> &Extra) -> LBool {
      std::vector<Lit> Assumptions = Guards;
      Assumptions.insert(Assumptions.end(), Extra.begin(), Extra.end());
      for (Var V : PreferTrue)
        S.setPolarity(V, true);
      ++Res.SatCalls;
      LBool R = S.solve(Assumptions);
      if (R == LBool::True)
        Reader.readSoft(S, Res.Model);
      return R;
    };
    Hooks.SatisfyLit = [&](size_t J) { return satisfyLit(J); };
    Res.CanonicalTruncated = !greedyCanonicalize(Soft, Hooks, Res.Model);
  }

  /// Anytime upper bound after budget exhaustion: ANY model of the hard
  /// clauses alone bounds the optimum by its falsified-soft weight, so
  /// probe without the guard assumptions under a small bounded allowance.
  /// Only runs when the query budget (not the legacy per-call conflict
  /// cap) tripped, so unbudgeted flows behave exactly as before.
  void harvestUpperBound(MaxSatResult &Res) {
    if (!S.budgetExhausted() || S.interrupted())
      return;
    Solver::Budget Saved = S.budget();
    S.clearBudget();
    Solver::Budget Allowance;
    Allowance.MaxConflicts = 1000;
    S.setBudget(Allowance);
    ++Res.SatCalls;
    if (S.solve() == LBool::True) {
      Reader.read(S, Res.BestModel);
      uint64_t Ub = 0;
      for (const SoftClause &SC : Soft)
        if (!clauseSatisfied(SC.Lits, Res.BestModel))
          Ub += SC.Weight;
      Res.UpperBound = Ub;
    }
    S.setBudget(Saved);
    S.markBudgetExhausted(); // the query budget stays sticky-exhausted
  }

  /// A literal that, assumed true, forces original soft clause \p J to be
  /// satisfied: the clause's own literal when it is unit (the localization
  /// case), otherwise a lazily created selector T with (C_J \/ ~T). The
  /// selector clause is inert when T is unassumed, so it never perturbs
  /// ordinary rounds.
  Lit satisfyLit(size_t J) {
    if (Soft[J].Lits.size() == 1)
      return Soft[J].Lits[0];
    if (SatisfySelector.empty())
      SatisfySelector.assign(Soft.size(), NullVar);
    if (SatisfySelector[J] == NullVar) {
      Var T = S.newVar();
      S.setFrozen(T, true); // assumed by later canonicalization probes
      Clause C = Soft[J].Lits;
      C.push_back(mkLit(T, /*Negated=*/true));
      S.addClause(C);
      SatisfySelector[J] = T;
    }
    return mkLit(SatisfySelector[J]);
  }

  Var newGuard(size_t SoftIdx) {
    Var A = S.newVar();
    // Guards are assumed every round; releaseVar unfreezes on retirement.
    S.setFrozen(A, true);
    if (static_cast<Var>(SoftIdxOfVar.size()) <= A)
      SoftIdxOfVar.resize(A + 1, -1);
    SoftIdxOfVar[A] = static_cast<int32_t>(SoftIdx);
    return A;
  }

  Solver S;
  ModelReader Reader;
  std::vector<SoftClause> Soft;     ///< original soft clauses (for re-eval)
  std::vector<Var> PreferTrue;
  std::vector<Clause> WorkingSoft;  ///< soft + accumulated relaxation lits
  std::vector<Var> GuardOf;         ///< soft idx -> live guard variable
  std::vector<int32_t> SoftIdxOfVar; ///< guard var -> soft idx, -1 otherwise
  std::vector<Var> SatisfySelector; ///< soft idx -> canonicalization selector
  uint64_t Rounds = 0;
  bool Canonical;
  bool HardBroken = false;
};

} // namespace

std::unique_ptr<MaxSatSession>
bugassist::makeFuMalikSession(const MaxSatInstance &Inst,
                              uint64_t ConflictBudget,
                              const Solver::Options &SolverOpts,
                              bool Canonical) {
  return std::make_unique<FuMalikSessionImpl>(Inst, ConflictBudget, SolverOpts,
                                              Canonical);
}

MaxSatResult bugassist::solveFuMalik(const MaxSatInstance &Inst,
                                     uint64_t ConflictBudget,
                                     const Solver::Options &SolverOpts) {
  return FuMalikSessionImpl(Inst, ConflictBudget, SolverOpts,
                            /*Canonical=*/false)
      .solve();
}
