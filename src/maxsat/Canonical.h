//===- Canonical.h - Greedy canonicalization of MaxSAT optima ---*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalization of an optimal MaxSAT model: among minimum-weight
/// models, greedily prefer keeping soft clauses satisfied in index
/// (program) order, so falsification lands on the latest statements. This
/// pins the reported CoMSS deterministically regardless of
/// search-heuristic history -- essential once heuristic state persists
/// across solve() calls (PR 1), and doubly so once a portfolio can return
/// whichever worker answered first: every worker canonicalizes to the same
/// set, so localization results are identical at every thread count.
///
/// The routine is engine-agnostic: the linear-search session probes under
/// its PB-counter bound, Fu-Malik under its live assumption guards; both
/// bind the mechanics through CanonicalHooks. Both read their witnesses
/// through one ModelReader, which reads soft-clause variables only unless
/// the instance asked for the full model.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_MAXSAT_CANONICAL_H
#define BUGASSIST_MAXSAT_CANONICAL_H

#include "cnf/Lit.h"
#include "maxsat/MaxSat.h"

#include <functional>
#include <vector>

namespace bugassist {

/// Binds greedyCanonicalize to a concrete incremental session.
struct CanonicalHooks {
  /// Solves under the session's base assumptions -- which must hold the
  /// cost at the proven optimum -- plus \p Extra, refreshing the caller's
  /// witness model on True (the same model object passed to
  /// greedyCanonicalize).
  std::function<LBool(const std::vector<Lit> &Extra)> Probe;
  /// A literal that, when assumed, forces soft clause \p I satisfied.
  std::function<Lit(size_t I)> SatisfyLit;
};

/// Greedily canonicalizes \p Model (a witness of the optimum) in place via
/// incremental probes. A clause satisfied by the current witness commits
/// for free; each falsified position is located by a gallop-then-binary
/// search over the maximal additionally-satisfiable prefix ("satisfy
/// [Begin, E) too" is monotone in E). The first probe always tries just
/// one more clause, so an already-canonical witness costs exactly one
/// (cheap, UNSAT-by-assumption) probe per falsified clause. \returns false
/// when a probe exhausted the conflict budget; the witness keeps the last
/// successfully refreshed state.
bool greedyCanonicalize(const std::vector<SoftClause> &Soft,
                        const CanonicalHooks &Hooks,
                        std::vector<LBool> &Model);

/// Reads witnesses out of a session's solver for MaxSatResult. Soft-clause
/// variables are frozen, so reading them never runs model reconstruction;
/// every other original variable may be eliminated, and its first read
/// after a True result replays the whole elimination stack
/// (Solver::extendModel). Canonicalization and the falsified-soft set need
/// the soft variables only, so the full model is read once per result and
/// only for instances that set MaxSatInstance::WantModel.
class ModelReader {
public:
  explicit ModelReader(const MaxSatInstance &Inst);

  /// Refreshes the soft-clause variables of \p Model from \p S's last True
  /// model. A \p Model of the wrong size is first reset to NumVars Undef
  /// entries.
  void readSoft(const Solver &S, std::vector<LBool> &Model) const;

  /// readSoft, plus every other original variable when the instance asked
  /// for the full model.
  void read(const Solver &S, std::vector<LBool> &Model) const;

private:
  int NumVars;
  bool Full;
  std::vector<Var> SoftVars; ///< distinct soft-clause variables, ascending
};

} // namespace bugassist

#endif // BUGASSIST_MAXSAT_CANONICAL_H
