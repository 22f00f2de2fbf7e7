//===- BugAssist.h - Error localization via MaxSAT --------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Algorithm 1 and the surrounding driver: given a program, a
/// failing test, and a specification, enumerate minimal sets of source
/// lines (CoMSSes of the partial MaxSAT instance) whose replacement can
/// make the failure infeasible.
///
/// Typical use:
/// \code
///   BugAssistDriver Driver(Prog, "main");
///   auto Failing = Driver.findCounterexample(Spec{});      // Section 4.1
///   auto Report = localizeFault(Driver.formula(), *Failing, Spec{});
///                                                          // Algorithm 1
///   for (const Diagnosis &D : Report.Diagnoses)
///     ... D.Lines ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CORE_BUGASSIST_H
#define BUGASSIST_CORE_BUGASSIST_H

#include "bmc/TraceFormula.h"
#include "bmc/Unroller.h"
#include "interp/Interpreter.h"
#include "lang/Ast.h"
#include "maxsat/MaxSat.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace bugassist {

/// One CoMSS mapped back to source: a minimal set of lines such that
/// simultaneously changing all of them can eliminate the failure.
struct Diagnosis {
  /// Source lines (sorted, unique).
  std::vector<uint32_t> Lines;
  /// Loop unwinding indexes per group when per-iteration grouping is on
  /// (parallel to Lines; 0 = not iteration-specific).
  std::vector<uint32_t> Unwindings;
  /// Total soft weight of the CoMSS.
  uint64_t Cost = 0;
};

/// Result of running Algorithm 1 to exhaustion (or to MaxDiagnoses).
struct LocalizationReport {
  std::vector<Diagnosis> Diagnoses;
  /// Union of all reported lines, sorted -- the paper's "potential bug
  /// locations" used for the SizeReduc% metric of Table 1.
  std::vector<uint32_t> AllLines;
  /// True when enumeration stopped because the hard part became UNSAT
  /// ("No more suspects") rather than hitting MaxDiagnoses.
  bool Exhausted = false;
  /// True when a resource budget (timeout / conflict cap / memory cap)
  /// stopped the enumeration early: Diagnoses holds every CoMSS completed
  /// before the budget bit, but more may exist. Mutually exclusive with
  /// Exhausted.
  bool Incomplete = false;
  uint64_t SatCalls = 0;
  /// Cumulative statistics of the incremental MaxSAT session's solver
  /// (conflicts, propagations, ...) over the whole enumeration; for a
  /// portfolio run, summed over all workers (including the clause-exchange
  /// counters ClausesExported / ClausesImported).
  SolverStats Search;
  /// Portfolio runs only: races won per worker (empty when Threads == 1).
  std::vector<uint64_t> PortfolioWins;
};

/// A query-wide resource budget, 0 = unlimited for each knob. It covers a
/// whole query -- every solver, portfolio worker and enumeration round --
/// not one SAT call. The CLI's --timeout/--max-conflicts/--max-memory-mb
/// and serve's timeout/max_conflicts/max_memory_mb all land here.
struct QueryBudget {
  /// Wall-clock deadline, in seconds.
  double TimeoutSeconds = 0;
  /// Total conflict cap.
  uint64_t MaxConflicts = 0;
  /// Clause-arena cap per solver, in mebibytes.
  uint64_t MaxMemoryMb = 0;

  /// True when any knob is set.
  bool any() const {
    return TimeoutSeconds > 0 || MaxConflicts > 0 || MaxMemoryMb > 0;
  }
  /// The Solver::Budget equivalent. The deadline starts ticking at the
  /// moment of this call.
  Solver::Budget solverBudget() const {
    Solver::Budget B;
    B.MaxConflicts = MaxConflicts;
    B.MaxArenaBytes = MaxMemoryMb << 20;
    if (TimeoutSeconds > 0)
      B.setDeadlineIn(TimeoutSeconds);
    return B;
  }
};

struct LocalizeOptions {
  /// Stop after this many CoMSSes (the paper iterates interactively).
  size_t MaxDiagnoses = 16;
  /// Use the weighted linear-search solver instead of Fu-Malik.
  bool Weighted = false;
  /// Per-SAT-call conflict budget (0 = unlimited).
  uint64_t ConflictBudget = 0;
  /// Portfolio width: > 1 races this many diversified persistent MaxSAT
  /// sessions per solve with learnt-clause sharing (maxsat/Portfolio.h).
  /// Sessions canonicalize their optima, so diagnoses of unbudgeted runs
  /// are identical at every thread count.
  size_t Threads = 1;
  /// Run SatELite-style clause-database simplification (subsumption,
  /// self-subsuming resolution, bounded variable elimination) at solver
  /// load and restart boundaries. Canonicalized diagnoses are identical
  /// with it on or off; turn off to debug or to bound preprocessing cost.
  bool Preprocess = true;
  /// Budget for the whole enumeration (unlike ConflictBudget, which is per
  /// SAT call). When it is exhausted mid-enumeration, the report carries
  /// the diagnoses completed so far with Incomplete = true instead of
  /// running forever or aborting.
  QueryBudget Budget;
};

/// Algorithm 1's enumeration loop on a session whose soft clauses mirror
/// \p F's clause groups (soft index == group id): enumerates CoMSSes,
/// blocking each one with a hard clause (lambda_1 \/ ... \/ lambda_k).
/// Installs Opts' query-wide budget first; the session's own engine,
/// width and per-call budget apply (Opts.Threads/Weighted/ConflictBudget
/// only matter where the session is built). Sessions canonicalize their
/// optima, so the report depends only on the formula, never on which
/// session produced it. Fills PortfolioWins when \p Session is a
/// PortfolioSession. The session is consumed (blocking clauses
/// accumulate).
LocalizationReport enumerateCoMSSes(MaxSatSession &Session,
                                    const CnfFormula &F,
                                    const LocalizeOptions &Opts = {});

/// Algorithm 1 on a prebuilt trace formula: builds the (Phi_H, Phi_S)
/// session for \p FailingTest through makeMaxSatSession (engine, width,
/// per-call budget and preprocessing from \p Opts) and enumerates on it.
LocalizationReport localizeFault(const TraceFormula &TF,
                                 const InputVector &FailingTest,
                                 const Spec &S,
                                 const LocalizeOptions &Opts = {});

/// Decision procedure behind the paper's definition of a fix location:
/// \returns true iff replacing exactly the statements on \p Lines can make
/// the failing execution satisfy the spec (i.e., the trace formula with
/// those groups' selectors off and all others on is satisfiable). One SAT
/// call; deterministic, unlike enumeration order. \p ConflictBudget
/// bounds the call (0 = unlimited); exhaustion counts as "not valid".
bool isValidCorrection(const TraceFormula &TF, const InputVector &FailingTest,
                       const Spec &S, const std::vector<uint32_t> &Lines,
                       uint64_t ConflictBudget = 0);

/// Unroll + encode for one program: the trace formula every localization
/// entry point runs on.
class BugAssistDriver {
public:
  /// \p Prog must have passed Sema; it is only read during construction.
  BugAssistDriver(const Program &Prog, std::string Entry,
                  UnrollOptions UOpts = {}, EncodeOptions EOpts = {});

  const TraceFormula &formula() const { return TF; }

  /// Bounded model checking for a failing input (Section 4.1), unbudgeted
  /// on a throwaway solver. \returns std::nullopt when no violation exists
  /// within bounds. Const, so a shared driver can serve concurrent
  /// queries. The pipeline runs the budgeted, interruptible form,
  /// TraceFormula::findCounterexample.
  std::optional<InputVector> findCounterexample(const Spec &S) const;

private:
  TraceFormula TF;
};

} // namespace bugassist

#endif // BUGASSIST_CORE_BUGASSIST_H
