//===- LinearSearch.cpp - Weighted MaxSAT by model-improving search ----------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// Lower-bound-guided model search: the session tracks a proven lower bound
// on the optimum (0 for a fresh instance; the previous optimum after a
// blocking clause, since added hard clauses can only raise the optimum).
// Each solve() first probes exactly at that bound -- a SAT answer is
// optimal immediately, with no descent and no bound-tightening calls. Only
// when the probe is UNSAT does the session fall back to one unbounded
// model (an upper bound) and a binary search between the two. This is the
// weighted engine behind the loop-diagnosis extension (paper Section 5.2),
// whose soft selector weights alpha + eta - kappa prioritize early loop
// iterations.
//
// Incremental: ONE solver lives for the whole session. The relaxed
// formula is loaded once, and bounds "sum <= K" are enforced purely by
// assumptions: K == 0 assumes every relaxation literal off (no counter at
// all -- the common localization round costs two propagation-only SAT
// calls), K >= 1 assumes the negation of a saturating sequential weighted
// counter output (Martins et al. style incremental cardinality). The
// counter is encoded lazily at the width the first UNSAT bound demands and
// only widened when a later blocking clause pushes the optimum past its
// range -- never re-encoded per step, so learned clauses and heuristic
// state survive every step and every blocking clause of the CoMSS
// enumeration.
//
//===----------------------------------------------------------------------===//

#include "maxsat/MaxSat.h"

#include "maxsat/Canonical.h"
#include "maxsat/Cardinality.h"
#include "sat/Solver.h"

#include <cassert>

using namespace bugassist;

namespace {

uint64_t modelCost(const std::vector<SoftClause> &Soft,
                   const std::vector<LBool> &Model) {
  uint64_t Cost = 0;
  for (const SoftClause &S : Soft)
    if (!clauseSatisfied(S.Lits, Model))
      Cost += S.Weight;
  return Cost;
}

class LinearSessionImpl final : public MaxSatSession {
public:
  LinearSessionImpl(const MaxSatInstance &Inst, uint64_t ConflictBudget,
                    const Solver::Options &SolverOpts)
      : S(SolverOpts), Reader(Inst), Soft(Inst.Soft) {
    S.ensureVars(Inst.NumVars);
    // Frozen contract: canonicalization probes assume relaxation literals
    // off, bounds assume counter outputs, and the caller keeps talking
    // about soft-clause variables (blocking clauses, model readout) -- none
    // of these may be eliminated by inprocessing.
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
    // Relax each soft clause once: soft clause i becomes hard (C_i \/ R_i).
    RelaxLits.reserve(Soft.size());
    Weights.reserve(Soft.size());
    for (const SoftClause &SC : Soft) {
      Lit RL = mkLit(S.newVar());
      S.setFrozen(RL.var(), true); // assumed off by K==0 bounds and probes
      Clause C = SC.Lits;
      C.push_back(RL);
      S.addClause(std::move(C));
      // One direction suffices for minimization (a model can always turn R
      // off when the clause is satisfied), but add the equivalence for unit
      // soft clauses so the counter tracks exact costs from the start.
      if (SC.Lits.size() == 1)
        S.addClause({~RL, ~SC.Lits[0]});
      RelaxLits.push_back(RL);
      Weights.push_back(SC.Weight);
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

  /// Member-wise deep copy: the Solver copy carries the arena and PB
  /// counter clauses, and the relaxation literals / weights / proven lower
  /// bound are plain values. Root level only.
  std::unique_ptr<MaxSatSession> clone() const override {
    return std::unique_ptr<MaxSatSession>(new LinearSessionImpl(*this));
  }

  MaxSatResult solve() override {
    MaxSatResult Res;
    if (HardBroken) {
      Res.Status = MaxSatStatus::HardUnsat;
      Res.LowerBound = Res.UpperBound = UINT64_MAX;
      Res.Search = S.stats();
      return Res;
    }

    // Phase saving overwrites polarities during search; re-seed the
    // "program as written" bias before every descent, exactly as the
    // per-round solver rebuild used to.
    auto SolveWith = [&](const std::vector<Lit> &Assumptions) {
      for (Var V : PreferTrue)
        S.setPolarity(V, true);
      ++Res.SatCalls;
      return S.solve(Assumptions);
    };
    // Bound "relax-weight sum <= K" as assumptions only: all relaxation
    // literals off for K == 0 (no counter needed), a counter output
    // otherwise (encoded lazily at exactly the width this bound demands).
    auto BoundAssumptions = [&](uint64_t K) {
      std::vector<Lit> A;
      if (K == 0) {
        A.reserve(RelaxLits.size());
        for (Lit RL : RelaxLits)
          A.push_back(~RL);
      } else {
        ensureCounter(K + 1);
        A.push_back(~CounterOut[K]);
      }
      return A;
    };
    std::vector<LBool> BestModel;
    uint64_t BestCost = 0;
    bool HaveModel = false;

    // Every True solve below refreshes BestModel, so the solver's last
    // True model is always BestModel's witness: the search reads soft
    // variables only, and Reader.read completes the model once at the end.
    auto ExtractModel = [&](std::vector<LBool> &Model) {
      Reader.readSoft(S, Model);
      HaveModel = true;
    };
    // Anytime contract: hand back the proven lower bound plus the best
    // model seen so far (harvesting one under a bounded allowance when the
    // budget bit before any model was found).
    auto Unknown = [&]() {
      Res.Status = MaxSatStatus::Unknown;
      Res.LowerBound = LowerBound;
      if (HaveModel) {
        Res.UpperBound = BestCost;
        Reader.read(S, BestModel);
        Res.BestModel = std::move(BestModel);
      } else {
        harvestUpperBound(Res);
      }
      Res.Search = S.stats();
      return Res;
    };

    // Probe exactly at the proven lower bound: SAT here is optimal with no
    // descent and no bound-tightening call.
    LBool R = SolveWith(BoundAssumptions(LowerBound));
    if (R == LBool::Undef)
      return Unknown();
    if (R == LBool::True) {
      ExtractModel(BestModel);
      BestCost = modelCost(Soft, BestModel);
      // relax-sum <= LB forces cost <= LB; optimum >= LB pins equality.
      assert(BestCost == LowerBound && "LB-probe model must be optimal");
    } else {
      // Optimum > LowerBound (or the hard part became UNSAT): take one
      // unbounded model as an upper bound, then binary-search between.
      LowerBound += 1;
      R = SolveWith({});
      if (R == LBool::Undef)
        return Unknown();
      if (R == LBool::False) {
        Res.Status = MaxSatStatus::HardUnsat;
        Res.LowerBound = Res.UpperBound = UINT64_MAX;
        Res.Search = S.stats();
        return Res;
      }
      ExtractModel(BestModel);
      BestCost = modelCost(Soft, BestModel);
      assert(BestCost >= LowerBound && "model beat the proven lower bound");
      while (BestCost > LowerBound) {
        uint64_t Mid = LowerBound + (BestCost - LowerBound) / 2;
        R = SolveWith(BoundAssumptions(Mid));
        if (R == LBool::Undef)
          return Unknown();
        if (R == LBool::False) {
          LowerBound = Mid + 1;
          continue;
        }
        ExtractModel(BestModel);
        BestCost = modelCost(Soft, BestModel);
        assert(BestCost <= Mid && "bound assumption did not hold");
      }
    }
    LowerBound = BestCost; // optima are monotone under added hard clauses

    if (BestCost > 0 && !RelaxLits.empty())
      canonicalize(BestModel, BestCost, Res);

    Res.Status = MaxSatStatus::Optimum;
    Reader.read(S, BestModel);
    Res.Model = std::move(BestModel);
    Res.Cost = BestCost;
    Res.LowerBound = Res.UpperBound = BestCost;
    Res.BestModel = Res.Model;
    for (size_t I = 0; I < Soft.size(); ++I)
      if (!clauseSatisfied(Soft[I].Lits, Res.Model))
        Res.FalsifiedSoft.push_back(I);
    Res.Search = S.stats();
    return Res;
  }

private:
  /// Anytime upper bound after budget exhaustion: an unbounded solve under
  /// a small allowance yields a hard-satisfying model whose cost bounds the
  /// optimum from above. Only runs when the query budget tripped, so
  /// unbudgeted flows behave exactly as before.
  void harvestUpperBound(MaxSatResult &Res) {
    if (!S.budgetExhausted() || S.interrupted())
      return;
    Solver::Budget Saved = S.budget();
    S.clearBudget();
    Solver::Budget Allowance;
    Allowance.MaxConflicts = 1000;
    S.setBudget(Allowance);
    for (Var V : PreferTrue)
      S.setPolarity(V, true);
    ++Res.SatCalls;
    if (S.solve() == LBool::True) {
      Reader.read(S, Res.BestModel);
      Res.UpperBound = modelCost(Soft, Res.BestModel);
    }
    S.setBudget(Saved);
    S.markBudgetExhausted(); // the query budget stays sticky-exhausted
  }

  /// Canonicalizes the optimum (see Canonical.h): probes run under the
  /// counter bound "sum <= Cost", and soft clause J is forced satisfied by
  /// assuming its relaxation literal off (relaxation and counter clauses
  /// only constrain it upward, so a satisfied clause can always lower it).
  void canonicalize(std::vector<LBool> &Model, uint64_t Cost,
                    MaxSatResult &Res) {
    ensureCounter(Cost + 1);
    Lit HoldOptimum = ~CounterOut[Cost]; // hold sum <= Cost
    CanonicalHooks Hooks;
    Hooks.Probe = [&](const std::vector<Lit> &Extra) -> LBool {
      std::vector<Lit> Assumptions = {HoldOptimum};
      Assumptions.insert(Assumptions.end(), Extra.begin(), Extra.end());
      for (Var V : PreferTrue)
        S.setPolarity(V, true);
      ++Res.SatCalls;
      LBool R = S.solve(Assumptions);
      if (R == LBool::True)
        Reader.readSoft(S, Model);
      return R;
    };
    Hooks.SatisfyLit = [&](size_t J) { return ~RelaxLits[J]; };
    Res.CanonicalTruncated = !greedyCanonicalize(Soft, Hooks, Model);
  }

  /// Makes counter outputs available for thresholds 1..MaxNeeded. Encoded
  /// once in the common case; a later blocking clause can push the first
  /// model's cost past the current range, in which case a wider counter is
  /// encoded over the same relaxation literals (the narrower one stays as
  /// inert implications).
  void ensureCounter(uint64_t MaxNeeded) {
    if (CounterOut.size() >= MaxNeeded)
      return;
    ClauseSink Sink{[this](Clause C) { S.addClause(std::move(C)); },
                    [this]() { return S.newVar(); }};
    CounterOut = encodePbCounter(RelaxLits, Weights, MaxNeeded, Sink);
    // Counter outputs are assumed by every bounded solve from here on.
    for (Lit Out : CounterOut)
      S.setFrozen(Out.var(), true);
  }

  Solver S;
  ModelReader Reader;
  std::vector<SoftClause> Soft;
  std::vector<Var> PreferTrue;
  std::vector<Lit> RelaxLits;
  std::vector<uint64_t> Weights;
  std::vector<Lit> CounterOut; ///< CounterOut[J-1] <=> relax-weight sum >= J
  /// Proven lower bound on the current optimum: 0 initially, then the last
  /// optimum (added hard clauses can only raise it). solve() probes here
  /// first, so a re-optimization whose optimum is unchanged costs one SAT
  /// call and no bound tightening.
  uint64_t LowerBound = 0;
  bool HardBroken = false;
};

} // namespace

std::unique_ptr<MaxSatSession>
bugassist::makeLinearSession(const MaxSatInstance &Inst,
                             uint64_t ConflictBudget,
                             const Solver::Options &SolverOpts) {
  return std::make_unique<LinearSessionImpl>(Inst, ConflictBudget, SolverOpts);
}

MaxSatResult bugassist::solveLinear(const MaxSatInstance &Inst,
                                    uint64_t ConflictBudget,
                                    const Solver::Options &SolverOpts) {
  return LinearSessionImpl(Inst, ConflictBudget, SolverOpts).solve();
}
