//===- Solver.cpp - CDCL SAT solver ----------------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The algorithm follows Een & Sorensson's "An Extensible SAT-solver"
// (MiniSAT), with the assumption-core extraction of MiniSAT 1.14+ that the
// Fu-Malik MaxSAT layer depends on, and Glucose-style learned-clause
// management (Audemard & Simon, "Predicting Learnt Clauses Quality in
// Modern SAT Solvers", IJCAI'09): LBD-keyed three-tier retention and
// dual-EMA adaptive restarts with trail-size blocking. Clause storage is a
// flat arena in the style of MiniSAT's ClauseAllocator: headers, activity,
// LBD and literals are inline in one contiguous buffer, so the propagation
// inner loop never chases a per-clause heap pointer, and freed clauses are
// reclaimed by a relocating garbage collector once a fifth of the arena is
// waste.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"

#include "cnf/Cnf.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

using namespace bugassist;

Solver::Solver(const Options &O) : Opts(O) {
  RandState = O.RandSeed | 1;
  double Freq = std::min(1.0, std::max(0.0, O.RandomBranchFreq));
  RandBranchThreshold = static_cast<uint32_t>(Freq * 1024.0);
}

void Solver::adoptOptions(const Options &O) {
  assert(decisionLevel() == 0 && "adoptOptions only at the root level");
  Opts = O;
  RandState = O.RandSeed | 1;
  double Freq = std::min(1.0, std::max(0.0, O.RandomBranchFreq));
  RandBranchThreshold = static_cast<uint32_t>(Freq * 1024.0);
  for (Var V = 0; V < static_cast<Var>(Assigns.size()); ++V) {
    if (Assigns[V] != LBool::Undef)
      continue;
    bool Phase = false;
    switch (Opts.InitPhase) {
    case Options::PhaseInit::False:
      break;
    case Options::PhaseInit::True:
      Phase = true;
      break;
    case Options::PhaseInit::Random:
      Phase = nextRand() & 1;
      break;
    }
    SavedPhase[V] = Phase;
  }
}

float Solver::clauseActivity(ClauseRef CR) const {
  float A;
  int32_t Bits = Arena[CR + 1].code();
  std::memcpy(&A, &Bits, sizeof(A));
  return A;
}

void Solver::setClauseActivity(ClauseRef CR, float A) {
  int32_t Bits;
  std::memcpy(&Bits, &A, sizeof(Bits));
  Arena[CR + 1] = Lit::fromCode(Bits);
}

Var Solver::newVar() {
  Var V = static_cast<Var>(Assigns.size());
  Assigns.push_back(LBool::Undef);
  VarLevel.push_back(0);
  Reason.push_back(InvalidClause);
  Activity.push_back(0.0);
  HeapIndex.push_back(-1);
  bool Phase = false;
  switch (Opts.InitPhase) {
  case Options::PhaseInit::False:
    break;
  case Options::PhaseInit::True:
    Phase = true;
    break;
  case Options::PhaseInit::Random:
    Phase = nextRand() & 1;
    break;
  }
  SavedPhase.push_back(Phase);
  Released.push_back(false);
  FrozenVars.push_back(0);
  ElimVars.push_back(0);
  Seen.push_back(0);
  Watches.emplace_back(); // positive literal
  Watches.emplace_back(); // negative literal
  BinWatches.emplace_back();
  BinWatches.emplace_back();
  WatchDirty.push_back(0);
  WatchDirty.push_back(0);
  heapInsert(V);
  return V;
}

void Solver::ensureVars(int N) {
  while (numVars() < N)
    newVar();
}

bool Solver::addClause(const Clause &C) {
  assert(decisionLevel() == 0 && "clauses must be added at the root level");
  if (!Ok)
    return false;
  for (Lit L : C) {
    assert(L.isValid() && "invalid literal");
    ensureVars(L.var() + 1);
    if (ElimVars[L.var()])
      throw std::logic_error(
          "Solver::addClause: clause mentions an eliminated variable -- "
          "variables used in clauses added after the first solve() must be "
          "frozen (Solver::setFrozen) before preprocessing runs");
  }

  AddBuf.assign(C.begin(), C.end());
  if (!simplifyAtRoot(AddBuf))
    return true; // satisfied or tautological
  if (AddBuf.empty()) {
    Ok = false;
    return false;
  }
  if (AddBuf.size() == 1) {
    uncheckedEnqueue(AddBuf[0], InvalidClause);
    Ok = (propagate() == InvalidClause);
    return Ok;
  }
  ClauseRef CR = allocClause(AddBuf, /*Learnt=*/false);
  ProblemClauses.push_back(CR);
  attachClause(CR);
  return true;
}

bool Solver::simplifyAtRoot(std::vector<Lit> &C) const {
  std::sort(C.begin(), C.end());
  size_t J = 0;
  Lit Prev = NullLit;
  for (Lit L : C) {
    if (value(L) == LBool::True || L == ~Prev)
      return false;
    if (value(L) == LBool::False || L == Prev)
      continue;
    C[J++] = L;
    Prev = L;
  }
  C.resize(J);
  return true;
}

bool Solver::addFormula(const CnfFormula &F) {
  ensureVars(F.numVars());
  for (const Clause &C : F.hardClauses())
    if (!addClause(C))
      return false;
  return true;
}

bool Solver::releaseVar(Lit L) {
  assert(decisionLevel() == 0 && "release only at the root level");
  ensureVars(L.var() + 1);
  Released[L.var()] = true;
  // A released variable is root-fixed below, so later elimination of its
  // remaining clause occurrences is sound again: unfreeze (the frozen
  // contract covers variables the session will still *use*).
  FrozenVars[L.var()] = 0;
  if (HeapIndex[L.var()] != -1) {
    // Evict from the decision heap by raising to the top and popping.
    Activity[L.var()] = 1e300;
    heapDecrease(L.var());
    Var Top = heapPop();
    assert(Top == L.var() && "heap eviction failed");
    (void)Top;
    Activity[L.var()] = 0.0;
  }
  return addClause({L});
}

void Solver::setFrozen(Var V, bool Frozen) {
  ensureVars(V + 1);
  FrozenVars[V] = Frozen ? 1 : 0;
}

void Solver::setBudget(const Budget &B) {
  Bud = B;
  BudgetArmed = !B.unlimited();
  BudgetExhaustedFlag = false;
  BudgetStartConflicts = Stats.Conflicts;
  BudgetStartPropagations = Stats.Propagations;
  BudgetPollCountdown = 0; // poll on the first search iteration
}

void Solver::clearBudget() {
  Bud = Budget();
  BudgetArmed = false;
  BudgetExhaustedFlag = false;
}

bool Solver::pollBudget() {
  if (!BudgetArmed)
    return false;
  if (BudgetExhaustedFlag)
    return true;
  if ((Bud.MaxConflicts != 0 &&
       Stats.Conflicts - BudgetStartConflicts >= Bud.MaxConflicts) ||
      (Bud.MaxPropagations != 0 &&
       Stats.Propagations - BudgetStartPropagations >= Bud.MaxPropagations) ||
      (Bud.MaxArenaBytes != 0 && Arena.size() * sizeof(Lit) > Bud.MaxArenaBytes) ||
      (Bud.HasDeadline && std::chrono::steady_clock::now() >= Bud.Deadline))
    BudgetExhaustedFlag = true;
  return BudgetExhaustedFlag;
}

Solver::ClauseRef Solver::allocClause(const std::vector<Lit> &Lits,
                                      bool Learnt) {
  if (faultinject::active() &&
      faultinject::onEvent(faultinject::Event::Allocation))
    InterruptRequested.store(true, std::memory_order_relaxed);
  // The arena cap degrades, never throws: the clause is still allocated
  // (one-clause overshoot) and the sticky flag makes the search loop hand
  // back Undef on its next iteration.
  if (BudgetArmed && Bud.MaxArenaBytes != 0 &&
      (Arena.size() + HeaderWords + Lits.size()) * sizeof(Lit) >
          Bud.MaxArenaBytes)
    BudgetExhaustedFlag = true;
  ClauseRef CR = static_cast<ClauseRef>(Arena.size());
  int32_t Header = static_cast<int32_t>(Lits.size() << 3);
  if (Learnt)
    Header |= LearntBit;
  Arena.push_back(Lit::fromCode(Header));
  Arena.push_back(Lit::fromCode(0)); // activity slot
  Arena.push_back(Lit::fromCode(0)); // lbd/flags slot
  Arena.insert(Arena.end(), Lits.begin(), Lits.end());
  setClauseActivity(CR, Learnt ? static_cast<float>(ClaInc) : 0.0f);
  return CR;
}

void Solver::attachClause(ClauseRef CR) {
  const Lit *CL = clauseLits(CR);
  assert(clauseSize(CR) >= 2 && "cannot watch unit clause");
  // Size-2 clauses live in the dedicated binary lists: the Blocker IS the
  // implied literal, so propagation needs no arena access at all.
  auto &Lists = clauseSize(CR) == 2 ? BinWatches : Watches;
  Lists[(~CL[0]).code()].push_back({CR, CL[1]});
  Lists[(~CL[1]).code()].push_back({CR, CL[0]});
}

void Solver::detachClause(ClauseRef CR, WatchLists &Lists) {
  const Lit *CL = clauseLits(CR);
  for (int I = 0; I < 2; ++I) {
    auto &WL = Lists[(~CL[I]).code()];
    for (size_t J = 0; J < WL.size(); ++J) {
      if (WL[J].CRef == CR) {
        WL[J] = WL.back();
        WL.pop_back();
        break;
      }
    }
  }
}

void Solver::rewatchAsBinary(ClauseRef CR) {
  // A clause that root-level trimming shrank to two literals migrates from
  // the long-clause watches into the binary lists (invariant: size 2 <=>
  // watched in BinWatches). The watched literals themselves are untouched
  // by trimming, so the stale entries are exactly at (~CL[0]) and (~CL[1]).
  detachClause(CR, Watches);
  attachClause(CR);
}

bool Solver::isLocked(ClauseRef CR) const {
  // Binary clauses skip propagate()'s normalizing swap, so the implied
  // literal may sit at either position.
  const Lit *CL = clauseLits(CR);
  if (value(CL[0]) == LBool::True && Reason[CL[0].var()] == CR)
    return true;
  return clauseSize(CR) == 2 && value(CL[1]) == LBool::True &&
         Reason[CL[1].var()] == CR;
}

void Solver::removeClause(ClauseRef CR) {
  // The watchers sit exactly at (~CL[0]) and (~CL[1]); leave them there
  // and let the next propagate()/garbageCollect() touching the lists drop
  // them. Scanning here would make every removal O(list length), and one
  // elimination pass can remove most clauses of a ~100k-clause formula.
  const Lit *CL = clauseLits(CR);
  bool Binary = clauseSize(CR) == 2;
  smudgeWatches((~CL[0]).code(), Binary);
  smudgeWatches((~CL[1]).code(), Binary);
  markFreed(CR);
  // Bound the backlog: a pass that frees most of a large formula would
  // otherwise hold every freed watcher (and grow lists with resolvents on
  // top of them) until it ends. One sweep per WatchDirty.size()/8 smudges
  // keeps the cost amortized O(1) per removal.
  if (DirtyCodes.size() * 8 > WatchDirty.size())
    cleanAllWatches(/*ReleaseEmpty=*/false);
}

void Solver::markFreed(ClauseRef CR) {
  Arena[CR] = Lit::fromCode(header(CR) | FreedBit);
  ArenaWasted += HeaderWords + clauseSize(CR);
  ++FreedClauses; // opens the root-scan gate (simplifyLevel0)
  if (clauseLearnt(CR))
    ++Stats.DeletedLearnts;
  else
    ++Stats.ClausesRemoved;
}

void Solver::cleanWatches(int32_t Code) {
  auto Freed = [&](const Watcher &W) { return clauseFreed(W.CRef); };
  auto Clean = [&](std::vector<Watcher> &WL) {
    WL.erase(std::remove_if(WL.begin(), WL.end(), Freed), WL.end());
  };
  if (WatchDirty[Code] & DirtyLong)
    Clean(Watches[Code]);
  if (WatchDirty[Code] & DirtyBin)
    Clean(BinWatches[Code]);
  WatchDirty[Code] = 0;
}

void Solver::cleanAllWatches(bool ReleaseEmpty) {
  for (int32_t Code : DirtyCodes)
    if (WatchDirty[Code])
      cleanWatches(Code);
  DirtyCodes.clear();
  if (!ReleaseEmpty)
    return;
  // Elimination empties the lists of every eliminated variable's literals
  // for good; a preprocessed base session lives as long as the serve
  // formula cache, so that capacity would be held forever. Lists still in
  // use keep theirs: shrinking them to fit only makes the search regrow
  // them, and that reallocation churn raised the peak footprint of the
  // Table 3 rows.
  for (auto *Lists : {&Watches, &BinWatches})
    for (auto &WL : *Lists)
      if (WL.empty() && WL.capacity() != 0)
        std::vector<Watcher>().swap(WL);
}

void Solver::uncheckedEnqueue(Lit L, ClauseRef From) {
  assert(value(L) == LBool::Undef && "enqueueing assigned literal");
  Assigns[L.var()] = L.negated() ? LBool::False : LBool::True;
  VarLevel[L.var()] = decisionLevel();
  Reason[L.var()] = From;
  SavedPhase[L.var()] = !L.negated();
  Trail.push_back(L);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef Confl = InvalidClause;
  while (PropagationHead < static_cast<int>(Trail.size())) {
    Lit P = Trail[PropagationHead++];
    ++Stats.Propagations;
    if (WatchDirty[P.code()])
      cleanWatches(P.code()); // freed watchers must not propagate

    // Binary fast path: the Blocker is the whole remaining clause, so each
    // watcher resolves with one value() lookup -- no header load, no
    // literal scan, no watch-list surgery.
    auto &BWL = BinWatches[P.code()];
    for (const Watcher &BW : BWL) {
      LBool BV = value(BW.Blocker);
      if (BV == LBool::False) {
        Confl = BW.CRef;
        break;
      }
      if (BV == LBool::Undef)
        uncheckedEnqueue(BW.Blocker, BW.CRef);
    }
    if (Confl != InvalidClause) {
      PropagationHead = static_cast<int>(Trail.size());
      break;
    }

    auto &WL = Watches[P.code()];
    size_t I = 0, J = 0;
    while (I < WL.size()) {
      Watcher W = WL[I];
      // Blocker literal already true: clause satisfied, keep the watch.
      if (value(W.Blocker) == LBool::True) {
        WL[J++] = WL[I++];
        continue;
      }
      Lit *CL = clauseLits(W.CRef);
      uint32_t Size = clauseSize(W.CRef);
      // Normalize so the false literal (~P) sits at index 1.
      Lit NotP = ~P;
      if (CL[0] == NotP)
        std::swap(CL[0], CL[1]);
      assert(CL[1] == NotP && "watch invariant broken");
      ++I;

      Lit First = CL[0];
      if (First != W.Blocker && value(First) == LBool::True) {
        WL[J++] = {W.CRef, First};
        continue;
      }

      // Look for a replacement watch.
      bool FoundWatch = false;
      for (uint32_t K = 2; K < Size; ++K) {
        if (value(CL[K]) != LBool::False) {
          std::swap(CL[1], CL[K]);
          Watches[(~CL[1]).code()].push_back({W.CRef, First});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;

      // Clause is unit or conflicting.
      WL[J++] = {W.CRef, First};
      if (value(First) == LBool::False) {
        Confl = W.CRef;
        PropagationHead = static_cast<int>(Trail.size());
        while (I < WL.size())
          WL[J++] = WL[I++];
        break;
      }
      uncheckedEnqueue(First, W.CRef);
    }
    WL.resize(J);
    if (Confl != InvalidClause)
      break;
  }
  return Confl;
}

uint32_t Solver::computeLbd(const Lit *Lits, uint32_t Size) {
  ++LbdStamp;
  uint32_t Distinct = 0;
  for (uint32_t I = 0; I < Size; ++I) {
    int L = level(Lits[I].var());
    if (L <= 0)
      continue;
    if (static_cast<size_t>(L) >= LbdStampOfLevel.size())
      LbdStampOfLevel.resize(static_cast<size_t>(L) + 1, 0);
    if (LbdStampOfLevel[L] != LbdStamp) {
      LbdStampOfLevel[L] = LbdStamp;
      ++Distinct;
    }
  }
  return Distinct ? Distinct : 1;
}

void Solver::analyze(ClauseRef Confl, std::vector<Lit> &OutLearnt,
                     int &OutBtLevel, uint32_t &OutLbd) {
  OutLearnt.clear();
  OutLearnt.push_back(NullLit); // slot for the asserting literal
  int PathCount = 0;
  Lit P = NullLit;
  int Index = static_cast<int>(Trail.size()) - 1;

  do {
    assert(Confl != InvalidClause && "no reason for implied literal");
    if (P != NullLit)
      normalizeBinaryReason(Confl, P);
    if (clauseLearnt(Confl)) {
      claBumpActivity(Confl);
      // Glucose: a learnt clause participating in conflict analysis gets
      // its LBD recomputed against the current levels; it can only
      // tighten, and a tightened clause is "interesting again" -- mark it
      // touched so the tier policy protects it at the next reduction.
      uint32_t Old = clauseLbd(Confl);
      if (Old > 2) {
        uint32_t New = computeLbd(clauseLits(Confl), clauseSize(Confl));
        if (New < Old) {
          setClauseLbd(Confl, New);
          ++Stats.LbdTightened;
        }
      }
      setClauseTouched(Confl, true);
    }
    const Lit *CL = clauseLits(Confl);
    uint32_t Size = clauseSize(Confl);
    for (uint32_t J = (P == NullLit ? 0 : 1); J < Size; ++J) {
      Lit Q = CL[J];
      if (Seen[Q.var()] || level(Q.var()) == 0)
        continue;
      Seen[Q.var()] = 1;
      varBumpActivity(Q.var());
      if (level(Q.var()) >= decisionLevel())
        ++PathCount;
      else
        OutLearnt.push_back(Q);
    }
    // Find the next literal on the trail to expand.
    while (!Seen[Trail[Index].var()])
      --Index;
    P = Trail[Index];
    --Index;
    Confl = Reason[P.var()];
    Seen[P.var()] = 0;
    --PathCount;
  } while (PathCount > 0);
  OutLearnt[0] = ~P;

  // Local clause minimization: a literal is redundant if the other literals
  // of its reason clause are all already in the learnt clause (marked seen).
  std::vector<Lit> Cleanup(OutLearnt.begin(), OutLearnt.end());
  for (Lit L : OutLearnt)
    Seen[L.var()] = 1;
  size_t Keep = 1;
  for (size_t I = 1; I < OutLearnt.size(); ++I) {
    Lit L = OutLearnt[I];
    ClauseRef R = Reason[L.var()];
    bool Redundant = false;
    if (R != InvalidClause) {
      normalizeBinaryReason(R, ~L); // ~L is the literal R implied
      Redundant = true;
      const Lit *RC = clauseLits(R);
      uint32_t RSize = clauseSize(R);
      for (uint32_t J = 1; J < RSize; ++J) {
        Lit Q = RC[J];
        if (!Seen[Q.var()] && level(Q.var()) > 0) {
          Redundant = false;
          break;
        }
      }
    }
    if (!Redundant)
      OutLearnt[Keep++] = L;
  }
  OutLearnt.resize(Keep);
  for (Lit L : Cleanup)
    Seen[L.var()] = 0;

  // The LBD of the minimized clause, measured before backjumping while the
  // trail levels are still those of the conflict.
  OutLbd = computeLbd(OutLearnt.data(), static_cast<uint32_t>(OutLearnt.size()));

  // Compute the backtrack level: second-highest decision level in clause.
  if (OutLearnt.size() == 1) {
    OutBtLevel = 0;
  } else {
    size_t MaxIdx = 1;
    for (size_t I = 2; I < OutLearnt.size(); ++I)
      if (level(OutLearnt[I].var()) > level(OutLearnt[MaxIdx].var()))
        MaxIdx = I;
    std::swap(OutLearnt[1], OutLearnt[MaxIdx]);
    OutBtLevel = level(OutLearnt[1].var());
  }
}

void Solver::analyzeFinal(Lit P) {
  // Called when assumption P is found forced false: collect the subset of
  // assumptions that (with the clauses) imply ~P. The resulting core holds
  // the assumption literals themselves (including P), so re-solving with
  // exactly the core as assumptions is again UNSAT.
  ConflictCore.clear();
  ConflictCore.push_back(P);
  if (decisionLevel() == 0)
    return;

  Seen[P.var()] = 1;
  for (int I = static_cast<int>(Trail.size()) - 1; I >= TrailLim[0]; --I) {
    Var V = Trail[I].var();
    if (!Seen[V])
      continue;
    if (Reason[V] == InvalidClause) {
      // Decision variable at this point == an assumption, decided true.
      assert(level(V) > 0 && "level-0 decision in final analysis");
      ConflictCore.push_back(Trail[I]);
    } else {
      normalizeBinaryReason(Reason[V], Trail[I]);
      const Lit *CL = clauseLits(Reason[V]);
      uint32_t Size = clauseSize(Reason[V]);
      for (uint32_t J = 1; J < Size; ++J)
        if (level(CL[J].var()) > 0)
          Seen[CL[J].var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[P.var()] = 0;
}

void Solver::cancelUntil(int Level) {
  if (decisionLevel() <= Level)
    return;
  for (int I = static_cast<int>(Trail.size()) - 1; I >= TrailLim[Level]; --I) {
    Var V = Trail[I].var();
    Assigns[V] = LBool::Undef;
    Reason[V] = InvalidClause;
    insertVarOrder(V);
  }
  PropagationHead = TrailLim[Level];
  Trail.resize(TrailLim[Level]);
  TrailLim.resize(Level);
}

Lit Solver::pickBranchLit() {
  Var Next = NullVar;
  // Occasional random decisions diversify restarts (and, in a portfolio,
  // decorrelate workers; the frequency is an Options knob).
  if ((nextRand() & 1023) < RandBranchThreshold && !heapEmpty()) {
    Var Cand = Heap[nextRand() % Heap.size()];
    if (value(Cand) == LBool::Undef)
      Next = Cand;
  }
  while (Next == NullVar || value(Next) != LBool::Undef) {
    if (heapEmpty())
      return NullLit;
    Next = heapPop();
    if (value(Next) != LBool::Undef)
      Next = NullVar;
  }
  return mkLit(Next, /*Negated=*/!SavedPhase[Next]);
}

uint64_t Solver::lubyScale(uint64_t I) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  uint64_t K = 1;
  while ((1ull << (K + 1)) <= I + 1)
    ++K;
  while ((1ull << K) - 1 != I + 1) {
    I = I - ((1ull << K) - 1);
    K = 1;
    while ((1ull << (K + 1)) <= I + 1)
      ++K;
  }
  return 1ull << (K - 1);
}

void Solver::pushLearnt(ClauseRef CR, uint32_t Lbd) {
  setClauseLbd(CR, Lbd);
  if (Opts.Retention == Options::RetentionPolicy::ActivityHalving) {
    LocalLearnts.push_back(CR);
    ++Stats.LocalLearnts;
    return;
  }
  if (Lbd <= Opts.CoreLbdCut || clauseSize(CR) <= 2) {
    CoreLearnts.push_back(CR);
    ++Stats.CoreLearnts;
  } else if (Lbd <= Opts.MidLbdCut) {
    MidLearnts.push_back(CR);
    ++Stats.MidLearnts;
  } else {
    LocalLearnts.push_back(CR);
    ++Stats.LocalLearnts;
  }
}

size_t Solver::reducibleLearnts() const {
  // Core clauses are permanent and never count against the reduction
  // trigger; under the seed policy every learnt lives in Local.
  return MidLearnts.size() + LocalLearnts.size();
}

void Solver::onConflictLearnt(uint32_t Lbd) {
  Stats.LbdSum += Lbd;
  ++Stats.LbdCount;
  if (Opts.Restart != Options::RestartPolicy::GlucoseEma)
    return;
  FastLbdEma += Opts.FastLbdAlpha * (static_cast<double>(Lbd) - FastLbdEma);
  FastLbdBias += Opts.FastLbdAlpha * (1.0 - FastLbdBias);
  double TrailSize = static_cast<double>(Trail.size());
  // Glucose blocking: an unusually deep trail at conflict time means the
  // solver is probably closing in on a model; cancel a pending restart
  // instead of throwing the assignment away. Decisive for the SAT-heavy
  // improvement steps of linear-search MaxSAT. The bias-corrected trail
  // EMA (and at least one prior sample) keeps the comparison meaningful
  // while the EMA warms up.
  if (ConflictsThisSolve >= Opts.BlockMinConflicts && TrailBias > 0 &&
      TrailSize > Opts.BlockMargin * (TrailEma / TrailBias) &&
      restartPending()) {
    ++Stats.RestartsBlocked;
    ConflictsSinceRestart = 0; // re-enter the warmup window
    // Drop the pending high-LBD signal: corrected fast EMA == lifetime avg.
    FastLbdEma = Stats.avgLearntLbd() * FastLbdBias;
  }
  TrailEma += Opts.TrailAlpha * (TrailSize - TrailEma);
  TrailBias += Opts.TrailAlpha * (1.0 - TrailBias);
}

bool Solver::restartPending() const {
  if (Stats.LbdCount == 0 || FastLbdBias <= 0)
    return false;
  return FastLbdEma / FastLbdBias > Opts.RestartMargin * Stats.avgLearntLbd();
}

bool Solver::shouldRestart() const {
  if (Opts.Restart == Options::RestartPolicy::Luby)
    return ConflictsSinceRestart >= CurRestartBudget;
  // At least one conflict must separate restarts, or a standing EMA signal
  // would spin the search loop without ever deciding.
  uint64_t Warmup = Opts.RestartMinConflicts ? Opts.RestartMinConflicts : 1;
  return ConflictsSinceRestart >= Warmup && restartPending();
}

LBool Solver::search() {
  std::vector<Lit> Learnt;
  int BtLevel = 0;
  uint32_t Lbd = 0;

  for (;;) {
    if (InterruptRequested.load(std::memory_order_relaxed))
      return LBool::Undef; // cooperative cancellation (portfolio racing)
    if (BudgetArmed && (BudgetExhaustedFlag || --BudgetPollCountdown <= 0)) {
      BudgetPollCountdown = BudgetPollPeriod;
      if (pollBudget())
        return LBool::Undef; // budget exhausted: degrade to Unknown
    }
    ClauseRef Confl = propagate();
    if (Confl != InvalidClause) {
      // Conflict.
      ++Stats.Conflicts;
      ++ConflictsThisSolve;
      ++ConflictsSinceRestart;
      if (decisionLevel() == 0) {
        Ok = false;
        return LBool::False;
      }
      analyze(Confl, Learnt, BtLevel, Lbd);
      onConflictLearnt(Lbd); // EMAs see the trail depth of the conflict
      cancelUntil(BtLevel);
      if (Learnt.size() == 1) {
        uncheckedEnqueue(Learnt[0], InvalidClause);
      } else {
        ClauseRef CR = allocClause(Learnt, /*Learnt=*/true);
        pushLearnt(CR, Lbd);
        attachClause(CR);
        claBumpActivity(CR);
        uncheckedEnqueue(Learnt[0], CR);
        ++Stats.LearnedClauses;
      }
      if (Export && Lbd <= Opts.ShareLbdMax &&
          Learnt.size() <= Opts.ShareMaxSize) {
        // Only clauses over the shared variable prefix travel: learnts
        // touching session-local auxiliaries stay private (they are only
        // implied by this worker's guard/counter structure).
        bool Shareable = true;
        for (Lit L : Learnt)
          if (L.var() >= ShareVarLimit) {
            Shareable = false;
            break;
          }
        if (Shareable) {
          Export(Learnt, Lbd);
          ++Stats.ClausesExported;
        }
      }
      varDecayActivity();
      claDecayActivity();
      continue;
    }

    // No conflict.
    if (shouldRestart()) {
      cancelUntil(0);
      return LBool::Undef; // restart
    }
    if (ConflictBudget != 0 && ConflictsThisSolve >= ConflictBudget)
      return LBool::Undef;
    if (static_cast<double>(reducibleLearnts()) >= MaxLearnts)
      reduceDB();

    // Assumption decisions come first.
    Lit Next = NullLit;
    while (decisionLevel() < static_cast<int>(CurAssumptions.size())) {
      Lit A = CurAssumptions[decisionLevel()];
      if (value(A) == LBool::True) {
        newDecisionLevel(); // dummy level keeps the indexing aligned
      } else if (value(A) == LBool::False) {
        analyzeFinal(A);
        return LBool::False;
      } else {
        Next = A;
        break;
      }
    }
    if (Next == NullLit) {
      ++Stats.Decisions;
      Next = pickBranchLit();
      if (Next == NullLit)
        return LBool::True; // all variables assigned: model found
    }
    newDecisionLevel();
    uncheckedEnqueue(Next, InvalidClause);
  }
}

LBool Solver::solve(const std::vector<Lit> &Assumptions) {
  ConflictCore.clear();
  if (!Ok) {
    return LBool::False;
  }
  for (Lit L : Assumptions) {
    ensureVars(L.var() + 1);
    if (ElimVars[L.var()])
      throw std::logic_error(
          "Solver::solve: assumption over an eliminated variable -- "
          "assumption variables must be frozen (Solver::setFrozen) before "
          "preprocessing runs");
  }
  CurAssumptions = Assumptions;
  ConflictsThisSolve = 0;
  MaxLearnts = std::max<double>(
      Opts.MaxLearntsBase, static_cast<double>(ProblemClauses.size()) / 3.0);

  simplifyLevel0();
  importSharedClauses(); // foreign clauses land at the root, like restarts
  if (Ok && Opts.Preprocess && !PreprocessedOnce)
    preprocess(); // load-time pass; restart boundaries re-run it below
  if (!Ok) {
    CurAssumptions.clear();
    return LBool::False;
  }
  checkGarbage();

  LBool Result = LBool::Undef;
  for (uint64_t RestartIdx = 0; Result == LBool::Undef; ++RestartIdx) {
    CurRestartBudget = Opts.LubyUnit * lubyScale(RestartIdx);
    ConflictsSinceRestart = 0;
    Result = search();
    if (Result == LBool::Undef) {
      if (InterruptRequested.load(std::memory_order_relaxed))
        break; // interrupted: hand back Undef without counting a restart
      if (BudgetExhaustedFlag)
        break; // budget exhausted: same contract as an interrupt
      if (faultinject::active() &&
          faultinject::onEvent(faultinject::Event::Restart))
        InterruptRequested.store(true, std::memory_order_relaxed);
      ++Stats.Restarts;
      if (ConflictBudget != 0 && ConflictsThisSolve >= ConflictBudget)
        break;
      // Restart boundary: the solver is at decision level 0, the one place
      // foreign clauses can be injected soundly and attached watchable.
      importSharedClauses();
      if (Ok && Opts.Preprocess && Opts.InprocessIntervalConflicts != 0 &&
          Stats.Conflicts - LastInprocConflicts >=
              Opts.InprocessIntervalConflicts)
        preprocess(); // inprocessing under the same budget accounting
      if (!Ok) {
        Result = LBool::False;
        break;
      }
    }
  }

  if (Result == LBool::True) {
    // Eliminated variables never appear on the trail; modelValue restores
    // them from the reconstruction stack prefix as it stands now, on the
    // first read that needs it (extendModel).
    Model.assign(Assigns.begin(), Assigns.end());
    ModelPending = true;
    ModelElimEnd = ElimStack.size();
  }
  cancelUntil(0);
  CurAssumptions.clear();
  return Result;
}

void Solver::simplifyLevel0() {
  assert(decisionLevel() == 0 && "simplify only at root");
  // Gate: with no new root fact and no clause freed since the last scan,
  // the scan below would find nothing to remove, trim, or compact --
  // clauses added since were simplified against the same root, and
  // learnts never hold root literals. (Root literals only ever append, and
  // every scan ends with the root trail fully propagated.)
  if (static_cast<int>(Trail.size()) == ScannedTrail &&
      FreedClauses == ScannedFreed)
    return;
  if (propagate() != InvalidClause) {
    Ok = false;
    return;
  }
  auto SimplifySet = [&](std::vector<ClauseRef> &Set) {
    size_t J = 0;
    for (ClauseRef CR : Set) {
      if (clauseFreed(CR))
        continue;
      Lit *CL = clauseLits(CR);
      uint32_t Size = clauseSize(CR);
      bool Satisfied = false;
      for (uint32_t K = 0; K < Size; ++K) {
        if (value(CL[K]) == LBool::True && level(CL[K].var()) == 0) {
          Satisfied = true;
          break;
        }
      }
      if (Satisfied) {
        if (!isLocked(CR)) {
          removeClause(CR);
          continue;
        }
      } else {
        // Trim root-level false literals beyond the two watched positions;
        // after level-0 propagation the watches themselves are never false.
        uint32_t NewSize = Size;
        for (uint32_t K = 2; K < NewSize;) {
          if (value(CL[K]) == LBool::False) {
            CL[K] = CL[--NewSize];
            ++ArenaWasted;
          } else {
            ++K;
          }
        }
        if (NewSize != Size) {
          setClauseSize(CR, NewSize);
          if (NewSize == 2)
            rewatchAsBinary(CR); // keep the size-2 <=> BinWatches invariant
        }
      }
      Set[J++] = CR;
    }
    Set.resize(J);
  };
  SimplifySet(ProblemClauses);
  SimplifySet(CoreLearnts);
  SimplifySet(MidLearnts);
  SimplifySet(LocalLearnts);
  refreshTierGauges();
  ScannedTrail = static_cast<int>(Trail.size());
  ScannedFreed = FreedClauses;
}

void Solver::reduceDB() {
  if (Opts.Retention == Options::RetentionPolicy::LbdTiers)
    reduceDbTiers();
  else
    reduceDbActivity();
}

void Solver::reduceLearntDb() {
  assert(decisionLevel() == 0 && "reduce only at the root level");
  reduceDB();
}

void Solver::reduceDbActivity() {
  // Seed policy: remove the lowest-activity half of learnt clauses, keeping
  // binary and locked (reason) clauses. Everything lives in Local.
  std::sort(LocalLearnts.begin(), LocalLearnts.end(),
            [&](ClauseRef A, ClauseRef B) {
              return clauseActivity(A) < clauseActivity(B);
            });
  size_t J = 0;
  for (size_t I = 0; I < LocalLearnts.size(); ++I) {
    ClauseRef CR = LocalLearnts[I];
    if (clauseFreed(CR))
      continue;
    bool Removable =
        clauseSize(CR) > 2 && !isLocked(CR) && I < LocalLearnts.size() / 2;
    if (Removable)
      removeClause(CR);
    else
      LocalLearnts[J++] = CR;
  }
  LocalLearnts.resize(J);
  MaxLearnts = MaxLearnts * 1.1 + 100;
  refreshTierGauges();
  checkGarbage();
}

void Solver::reduceDbTiers() {
  // Redistribute mid/local by their current (possibly tightened) LBD; the
  // core tier is permanent and never rescanned.
  std::vector<ClauseRef> Mid, Local;
  auto Classify = [&](ClauseRef CR, bool FromMid) {
    if (clauseFreed(CR))
      return;
    uint32_t Lbd = clauseLbd(CR);
    if (Lbd <= Opts.CoreLbdCut || clauseSize(CR) <= 2) {
      CoreLearnts.push_back(CR); // promoted for good
      return;
    }
    if (Lbd <= Opts.MidLbdCut) {
      if (clauseTouched(CR)) {
        // Used in a conflict since the last reduction: stays mid, young.
        setClauseTouched(CR, false);
        setClauseAge(CR, 0);
        Mid.push_back(CR);
        return;
      }
      if (FromMid) {
        // The stored age saturates at AgeMask, so a configured MidMaxAge
        // beyond the field's range degrades to AgeMask + 1 instead of
        // wrapping into immortality.
        uint32_t Age = clauseAge(CR) + 1;
        uint32_t MaxAge = std::min(Opts.MidMaxAge, AgeMask + 1);
        if (Age < MaxAge) {
          setClauseAge(CR, Age);
          Mid.push_back(CR);
          return;
        }
        // Unused for MidMaxAge reductions: falls into the local rotation.
      }
      // A clause that already aged out of mid only climbs back when a
      // conflict touches it again.
    }
    Local.push_back(CR);
  };
  for (ClauseRef CR : MidLearnts)
    Classify(CR, /*FromMid=*/true);
  for (ClauseRef CR : LocalLearnts)
    Classify(CR, /*FromMid=*/false);

  // Aggressive local rotation: the worst half by LBD-then-activity goes.
  // Locked clauses and clauses touched since the last reduction survive.
  std::sort(Local.begin(), Local.end(), [&](ClauseRef A, ClauseRef B) {
    if (clauseLbd(A) != clauseLbd(B))
      return clauseLbd(A) > clauseLbd(B);
    return clauseActivity(A) < clauseActivity(B);
  });
  size_t Target = Local.size() / 2;
  size_t Deleted = 0, J = 0;
  for (ClauseRef CR : Local) {
    if (Deleted < Target && !isLocked(CR) && !clauseTouched(CR)) {
      removeClause(CR);
      ++Deleted;
    } else {
      setClauseTouched(CR, false);
      Local[J++] = CR;
    }
  }
  Local.resize(J);

  MidLearnts = std::move(Mid);
  LocalLearnts = std::move(Local);
  MaxLearnts = MaxLearnts * 1.1 + 100;
  refreshTierGauges();
  checkGarbage();
}

void Solver::refreshTierGauges() {
  auto Live = [&](const std::vector<ClauseRef> &Set) {
    uint64_t N = 0;
    for (ClauseRef CR : Set)
      if (!clauseFreed(CR))
        ++N;
    return N;
  };
  Stats.CoreLearnts = Live(CoreLearnts);
  Stats.MidLearnts = Live(MidLearnts);
  Stats.LocalLearnts = Live(LocalLearnts);
}

std::vector<uint32_t> Solver::learntLbds() const {
  std::vector<uint32_t> Lbds;
  for (const auto *Set : {&CoreLearnts, &MidLearnts, &LocalLearnts})
    for (ClauseRef CR : *Set)
      if (!clauseFreed(CR))
        Lbds.push_back(clauseLbd(CR));
  return Lbds;
}

std::vector<Clause> Solver::problemClauses() const {
  std::vector<Clause> Out;
  for (ClauseRef CR : ProblemClauses)
    if (!clauseFreed(CR))
      Out.emplace_back(clauseLits(CR), clauseLits(CR) + clauseSize(CR));
  return Out;
}

// --- portfolio clause exchange ----------------------------------------------

void Solver::importSharedClauses() {
  if (!Import || !Ok)
    return;
  assert(decisionLevel() == 0 && "imports only at the root level");
  std::vector<Lit> C;
  uint32_t Lbd = 0;
  bool Any = false;
  while (Ok && Import(C, Lbd)) {
    addImportedClause(C, Lbd);
    Any = true;
  }
  if (Ok && Any && propagate() != InvalidClause)
    Ok = false;
}

void Solver::addImportedClause(std::vector<Lit> &Lits, uint32_t Lbd) {
  // Root-level simplification mirrors addClause, but the clause enters the
  // learnt tiers under its advertised LBD instead of the problem set: an
  // imported clause is a lemma, and the retention policy may drop it again.
  for (Lit L : Lits) {
    ensureVars(L.var() + 1);
    // The exchange prefix is structurally frozen, so foreign clauses never
    // mention eliminated variables; drop defensively rather than corrupt.
    if (ElimVars[L.var()])
      return;
  }
  if (!simplifyAtRoot(Lits))
    return; // satisfied at the root or tautological
  if (Lits.empty()) {
    Ok = false; // shared clauses are implied: the formula is UNSAT
    return;
  }
  ++Stats.ClausesImported;
  if (Lits.size() == 1) {
    uncheckedEnqueue(Lits[0], InvalidClause);
    return; // caller propagates after the batch
  }
  ClauseRef CR = allocClause(Lits, /*Learnt=*/true);
  pushLearnt(CR, std::max<uint32_t>(Lbd, 1));
  attachClause(CR);
}

// --- arena garbage collection ----------------------------------------------

void Solver::checkGarbage() {
  if (ArenaWasted * 5 >= Arena.size() && ArenaWasted > 0)
    garbageCollect();
}

void Solver::forceGarbageCollect() {
  assert(decisionLevel() == 0 && "collect only at the root level");
  garbageCollect();
}

void Solver::garbageCollect() {
  cleanAllWatches(/*ReleaseEmpty=*/false); // freed clauses must not be relocated
  std::vector<Lit> To;
  To.reserve(Arena.size() - ArenaWasted);

  auto Reloc = [&](ClauseRef &CR) {
    if (header(CR) & RelocedBit) {
      CR = Arena[CR + 1].code();
      return;
    }
    ClauseRef NR = static_cast<ClauseRef>(To.size());
    uint32_t Size = clauseSize(CR);
    for (int H = 0; H < HeaderWords; ++H)
      To.push_back(Arena[CR + H]); // header, activity, lbd/flags
    for (uint32_t K = 0; K < Size; ++K)
      To.push_back(Arena[CR + HeaderWords + K]);
    Arena[CR] = Lit::fromCode(header(CR) | RelocedBit);
    Arena[CR + 1] = Lit::fromCode(NR);
    CR = NR;
  };

  for (auto &WL : Watches)
    for (Watcher &W : WL)
      Reloc(W.CRef);
  for (auto &WL : BinWatches)
    for (Watcher &W : WL)
      Reloc(W.CRef);
  for (Lit L : Trail)
    if (Reason[L.var()] != InvalidClause)
      Reloc(Reason[L.var()]);
  auto RelocSet = [&](std::vector<ClauseRef> &Set) {
    size_t J = 0;
    for (ClauseRef CR : Set) {
      if (clauseFreed(CR) && !(header(CR) & RelocedBit))
        continue; // dead clause: dropped by collection
      Reloc(CR);
      Set[J++] = CR;
    }
    Set.resize(J);
  };
  RelocSet(ProblemClauses);
  RelocSet(CoreLearnts);
  RelocSet(MidLearnts);
  RelocSet(LocalLearnts);

  Arena = std::move(To);
  ArenaWasted = 0;
  ++Stats.GcRuns;
}

// --- VSIDS activity heap ----------------------------------------------------

void Solver::boostActivity(Var V, double Amount) {
  Activity[V] += Amount * VarInc;
  if (HeapIndex[V] != -1)
    heapDecrease(V);
}

void Solver::varBumpActivity(Var V) {
  Activity[V] += VarInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapIndex[V] != -1)
    heapDecrease(V);
}

void Solver::claBumpActivity(ClauseRef CR) {
  float A = clauseActivity(CR) + static_cast<float>(ClaInc);
  setClauseActivity(CR, A);
  if (A > 1e20f) {
    for (auto *Set : {&CoreLearnts, &MidLearnts, &LocalLearnts})
      for (ClauseRef LR : *Set)
        if (!clauseFreed(LR))
          setClauseActivity(LR, clauseActivity(LR) * 1e-20f);
    ClaInc *= 1e-20;
  }
}

void Solver::insertVarOrder(Var V) {
  if (HeapIndex[V] == -1 && !Released[V] && !ElimVars[V])
    heapInsert(V);
}

void Solver::heapInsert(Var V) {
  assert(HeapIndex[V] == -1 && "var already in heap");
  HeapIndex[V] = static_cast<int>(Heap.size());
  Heap.push_back(V);
  heapPercolateUp(HeapIndex[V]);
}

void Solver::heapDecrease(Var V) { heapPercolateUp(HeapIndex[V]); }

Var Solver::heapPop() {
  Var Top = Heap[0];
  HeapIndex[Top] = -1;
  Heap[0] = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    HeapIndex[Heap[0]] = 0;
    heapPercolateDown(0);
  }
  return Top;
}

void Solver::heapPercolateUp(int I) {
  Var V = Heap[I];
  while (I > 0) {
    int Parent = (I - 1) / 2;
    if (Activity[Heap[Parent]] >= Activity[V])
      break;
    Heap[I] = Heap[Parent];
    HeapIndex[Heap[I]] = I;
    I = Parent;
  }
  Heap[I] = V;
  HeapIndex[V] = I;
}

void Solver::heapPercolateDown(int I) {
  Var V = Heap[I];
  int N = static_cast<int>(Heap.size());
  for (;;) {
    int Child = 2 * I + 1;
    if (Child >= N)
      break;
    if (Child + 1 < N && Activity[Heap[Child + 1]] > Activity[Heap[Child]])
      ++Child;
    if (Activity[Heap[Child]] <= Activity[V])
      break;
    Heap[I] = Heap[Child];
    HeapIndex[Heap[I]] = I;
    I = Child;
  }
  Heap[I] = V;
  HeapIndex[V] = I;
}
