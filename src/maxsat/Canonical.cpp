//===- Canonical.cpp - Greedy canonicalization of MaxSAT optima --------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "maxsat/Canonical.h"

#include <algorithm>

using namespace bugassist;

ModelReader::ModelReader(const MaxSatInstance &Inst)
    : NumVars(Inst.NumVars), Full(Inst.WantModel) {
  // One exact allocation: sessions build this before their solver's
  // per-variable arrays, and the freed chunks of a doubling growth
  // fragment the heap under them (about 1.3 MiB more peak RSS on the
  // Table 3 rows).
  size_t NumLits = 0;
  for (const SoftClause &SC : Inst.Soft)
    NumLits += SC.Lits.size();
  SoftVars.reserve(NumLits);
  for (const SoftClause &SC : Inst.Soft)
    for (Lit L : SC.Lits)
      if (L.var() < NumVars)
        SoftVars.push_back(L.var());
  std::sort(SoftVars.begin(), SoftVars.end());
  SoftVars.erase(std::unique(SoftVars.begin(), SoftVars.end()),
                 SoftVars.end());
}

void ModelReader::readSoft(const Solver &S, std::vector<LBool> &Model) const {
  if (Model.size() != static_cast<size_t>(NumVars))
    Model.assign(static_cast<size_t>(NumVars), LBool::Undef);
  for (Var V : SoftVars)
    Model[V] = S.modelValue(V);
}

void ModelReader::read(const Solver &S, std::vector<LBool> &Model) const {
  if (!Full)
    return readSoft(S, Model);
  Model.resize(static_cast<size_t>(NumVars));
  for (Var V = 0; V < NumVars; ++V)
    Model[V] = S.modelValue(V);
}

bool bugassist::greedyCanonicalize(const std::vector<SoftClause> &Soft,
                                   const CanonicalHooks &Hooks,
                                   std::vector<LBool> &Model) {
  const size_t N = Soft.size();
  std::vector<Lit> Committed;
  // Probe(Begin, E): can clauses [Begin, E) be satisfied on top of the
  // committed prefix (under the session's optimum-holding base)? On
  // success the witness Model is refreshed by the hook.
  auto Probe = [&](size_t Begin, size_t E) -> LBool {
    std::vector<Lit> Extra = Committed;
    for (size_t J = Begin; J < E; ++J)
      Extra.push_back(Hooks.SatisfyLit(J));
    return Hooks.Probe(Extra);
  };

  size_t Begin = 0; // clauses [0, Begin) are committed satisfied
  while (Begin < N) {
    if (clauseSatisfied(Soft[Begin].Lits, Model)) {
      Committed.push_back(Hooks.SatisfyLit(Begin)); // free commit
      ++Begin;
      continue;
    }
    // Model falsifies clause Begin. Find the largest E with [Begin, E)
    // satisfiable; E == Begin (the current witness) is SAT, E == N is
    // UNSAT (the optimum falsifies something >= Begin). Gallop from the
    // left -- the witness is usually already canonical, making the very
    // first one-clause probe UNSAT -- then binary search the rest.
    size_t Lo = Begin, Hi = N;
    size_t Step = 1;
    bool Galloping = true;
    while (Lo + 1 < Hi) {
      size_t Mid;
      if (Galloping) {
        Mid = std::min(Lo + Step, Hi - 1);
        Step *= 2;
      } else {
        Mid = Lo + (Hi - Lo + 1) / 2;
      }
      LBool R = Probe(Begin, Mid);
      if (R == LBool::Undef)
        return false; // budget exhausted: keep the optimum found so far
      if (R == LBool::False) {
        Hi = Mid;
        Galloping = false;
        continue;
      }
      // The fresh witness may satisfy well past Mid.
      Lo = Mid;
      while (Lo < Hi - 1 && clauseSatisfied(Soft[Lo].Lits, Model))
        ++Lo;
    }
    // [Begin, Lo) satisfiable, [Begin, Lo + 1) not: Lo stays falsified.
    // Re-probe only if the current witness lost it (a failed probe does
    // not restore the earlier model).
    if (Lo > Begin && !clauseSatisfied(Soft[Lo - 1].Lits, Model)) {
      if (Probe(Begin, Lo) != LBool::True)
        return false; // budget exhausted mid-search
    }
    for (size_t J = Begin; J < Lo; ++J)
      Committed.push_back(Hooks.SatisfyLit(J));
    Begin = Lo + 1;
  }
  return true;
}
