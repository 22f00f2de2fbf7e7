//===- Pipeline.cpp - End-to-end localization pipeline ----------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "interp/Interpreter.h"
#include "lang/AstPrinter.h"
#include "maxsat/Portfolio.h"
#include "support/JsonEscape.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <map>

using namespace bugassist;

namespace {

/// Interpreter options agreeing with the encoding the pipeline builds:
/// same bit width, same bounds checking. Division-by-zero trapping follows
/// the obligation setting (the encoder emits obligations for both).
ExecOptions execOptionsFor(const PipelineRequest &R) {
  ExecOptions EO;
  EO.BitWidth = R.Unroll.BitWidth;
  EO.CheckArrayBounds = R.Unroll.CheckArrayBounds && R.CheckObligations;
  EO.CheckDivByZero = R.CheckObligations;
  return EO;
}

/// Does \p Run violate the spec of \p R?
bool violatesSpec(const ExecResult &Run, const PipelineRequest &R) {
  if (R.CheckObligations && Run.failed())
    return true;
  if (R.GoldenReturn && Run.Status == ExecStatus::Ok &&
      Run.ReturnValue != *R.GoldenReturn)
    return true;
  return false;
}

void appendDiagnosisLines(std::string &Out, const Diagnosis &D) {
  for (size_t J = 0; J < D.Lines.size(); ++J) {
    Out += ' ';
    Out += std::to_string(D.Lines[J]);
    if (J < D.Unwindings.size() && D.Unwindings[J] != 0) {
      Out += '@';
      Out += std::to_string(D.Unwindings[J]);
    }
  }
}

/// Per-line hit counts over all diagnoses, ordered by hits descending then
/// line ascending -- the single-run analogue of core/Ranking.h.
std::vector<std::pair<uint32_t, size_t>>
lineHits(const LocalizationReport &R) {
  std::map<uint32_t, size_t> Hits;
  for (const Diagnosis &D : R.Diagnoses) {
    std::vector<uint32_t> Unique(D.Lines);
    std::sort(Unique.begin(), Unique.end());
    Unique.erase(std::unique(Unique.begin(), Unique.end()), Unique.end());
    for (uint32_t L : Unique)
      ++Hits[L];
  }
  std::vector<std::pair<uint32_t, size_t>> Order(Hits.begin(), Hits.end());
  std::sort(Order.begin(), Order.end(),
            [](const auto &A, const auto &B) {
              return A.second != B.second ? A.second > B.second
                                          : A.first < B.first;
            });
  return Order;
}

} // namespace

PipelineResult bugassist::runLocalizePipeline(std::string_view Source,
                                              const PipelineRequest &R) {
  PipelineResult Res;
  std::unique_ptr<PreparedProgram> P =
      prepareProgram(Source, R.Entry, R.Unroll, R.Encode, Res.Message);
  if (!P) {
    Res.Status = PipelineStatus::CompileError;
    Res.Code = ErrorCode::CompileError;
    return Res;
  }
  return runLocalizePipeline(*P, R);
}

std::unique_ptr<PreparedProgram>
bugassist::prepareProgram(std::string_view Source, const std::string &Entry,
                          const UnrollOptions &Unroll,
                          const EncodeOptions &Encode, std::string &Error) {
  DiagEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    Error = Diags.render();
    return nullptr;
  }
  // The unroller assumes the entry exists.
  if (!Prog->findFunction(Entry)) {
    Error = "no entry function '" + Entry + "'\n";
    return nullptr;
  }
  auto P = std::make_unique<PreparedProgram>();
  P->Driver =
      std::make_unique<BugAssistDriver>(*Prog, Entry, Unroll, Encode);
  P->Prog = std::move(Prog);
  return P;
}

PipelineResult bugassist::runLocalizePipeline(const PreparedProgram &P,
                                              const PipelineRequest &R,
                                              MaxSatSession *Session,
                                              Solver *Bmc) {
  PipelineResult Res;
  Res.SpecUsed.CheckObligations = R.CheckObligations;
  Res.SpecUsed.GoldenReturn = R.GoldenReturn;
  const TraceFormula &TF = P.Driver->formula();
  LocalizeOptions Localize = R.Localize;

  if (R.Input) {
    // Sanity-check the given input concretely before blaming anything:
    // a passing input would make the MaxSAT instance satisfiable at cost
    // zero and the report vacuous.
    Interpreter I(*P.Prog, execOptionsFor(R));
    ExecResult Run = I.run(R.Entry, *R.Input);
    if (Run.Status == ExecStatus::SetupError) {
      Res.Status = PipelineStatus::InputNotFailing;
      Res.Code = ErrorCode::InputNotFailing;
      Res.Message = "input does not match the entry function's parameters";
      return Res;
    }
    if (Run.Status == ExecStatus::AssumeFail) {
      Res.Status = PipelineStatus::InputNotFailing;
      Res.Code = ErrorCode::InputNotFailing;
      Res.Message = "input rejected by an assume(): execution infeasible";
      return Res;
    }
    if (!violatesSpec(Run, R)) {
      Res.Status = PipelineStatus::InputNotFailing;
      Res.Code = ErrorCode::InputNotFailing;
      if (Run.Status != ExecStatus::Ok) {
        // Reachable only when the run aborted but obligations are not
        // part of the spec (or the step limit hit): there is no return
        // value to judge and nothing this spec blames.
        const char *Kind = Run.Status == ExecStatus::AssertFail
                               ? "an assert failure"
                               : Run.Status == ExecStatus::BoundsFail
                                     ? "an out-of-bounds access"
                                     : Run.Status == ExecStatus::DivByZero
                                           ? "a division by zero"
                                           : "the step limit";
        Res.Message = std::string("input stops on ") + Kind +
                      ", which the requested spec does not count as a "
                      "failure";
      } else if (R.GoldenReturn) {
        Res.Message = "input returns " + std::to_string(Run.ReturnValue) +
                      ", matching the golden value; the spec holds";
      } else {
        Res.Message = "input satisfies every obligation; the spec holds";
      }
      return Res;
    }
    Res.FailingInput = *R.Input;
  } else {
    // No input given: find one by bounded model checking (Section 4.1),
    // under the query's budget and on the caller's solver when given, so
    // the caller can interrupt it.
    Solver Own;
    Solver &Solve = Bmc ? *Bmc : Own;
    QueryBudget &B = Localize.Budget;
    Solver::Budget SB = B.solverBudget();
    if (B.any())
      Solve.setBudget(SB);
    bool Decided = false;
    auto Cex = TF.findCounterexample(Res.SpecUsed, Decided, Solve);
    if (!Cex) {
      Res.Status = PipelineStatus::NoCounterexample;
      Res.Code = Decided ? ErrorCode::Ok : ErrorCode::BudgetExhausted;
      Res.Report.Incomplete = !Decided;
      Res.Message =
          Decided ? "no spec violation found within the unwinding bounds"
                  : "INCOMPLETE: resource budget exhausted before the "
                    "counterexample search finished";
      return Res;
    }
    Res.FailingInput = *Cex;
    // One budget covers the whole query: localization gets what the
    // search left of it.
    if (B.TimeoutSeconds > 0)
      B.TimeoutSeconds = std::max(
          1e-6, std::chrono::duration<double>(
                    SB.Deadline - std::chrono::steady_clock::now())
                    .count());
    if (B.MaxConflicts > 0)
      B.MaxConflicts -= std::min(B.MaxConflicts - 1, Solve.stats().Conflicts);
  }

  if (Session) {
    // Complete the sharedInstance() session into the per-test instance:
    // the bindings and spec units range over original variables only, so
    // the session's guard numbering matches the fresh-session path.
    for (const Clause &C : TF.testClauses(Res.FailingInput, Res.SpecUsed))
      Session->addHardClause(C);
    Res.Report = enumerateCoMSSes(*Session, TF.encoded().Formula, Localize);
  } else {
    Res.Report = localizeFault(TF, Res.FailingInput, Res.SpecUsed, Localize);
  }
  Res.Status = PipelineStatus::Localized;
  Res.Code = Res.Report.Incomplete ? ErrorCode::BudgetExhausted : ErrorCode::Ok;
  return Res;
}

std::vector<int64_t> bugassist::goldenOutputs(
    const Program &Golden, const std::vector<InputVector> &Pool,
    const std::string &Entry, const ExecOptions &EO) {
  Interpreter GI(Golden, EO);
  std::vector<int64_t> Out;
  Out.reserve(Pool.size());
  for (const InputVector &In : Pool)
    Out.push_back(GI.run(Entry, In).ReturnValue);
  return Out;
}

FailingTests bugassist::segregateFailingTests(
    const std::vector<int64_t> &GoldenOut, const Program &Faulty,
    const std::vector<InputVector> &Pool, const std::string &Entry,
    const ExecOptions &EO, size_t MaxTests, size_t MaxPassing) {
  FailingTests Out;
  Out.PoolSize = Pool.size();
  Interpreter FI(Faulty, EO);
  for (size_t I = 0; I < Pool.size(); ++I) {
    if (Out.Inputs.size() >= MaxTests &&
        Out.PassingInputs.size() >= MaxPassing)
      break;
    if (FI.run(Entry, Pool[I]).ReturnValue != GoldenOut[I]) {
      if (Out.Inputs.size() < MaxTests) {
        Out.Inputs.push_back(Pool[I]);
        Out.Goldens.push_back(GoldenOut[I]);
      }
    } else if (Out.PassingInputs.size() < MaxPassing) {
      Out.PassingInputs.push_back(Pool[I]);
      Out.PassingGoldens.push_back(GoldenOut[I]);
    }
  }
  return Out;
}

std::string bugassist::renderInputVector(const InputVector &In) {
  std::string Out;
  for (size_t I = 0; I < In.size(); ++I) {
    if (I)
      Out += ',';
    if (In[I].IsArray) {
      Out += '[';
      for (size_t J = 0; J < In[I].Array.size(); ++J) {
        if (J)
          Out += ',';
        Out += std::to_string(In[I].Array[J]);
      }
      Out += ']';
    } else {
      Out += std::to_string(In[I].Scalar);
    }
  }
  return Out;
}

namespace {

bool parseScalar(std::string_view T, int64_t &Out) {
  // Trim surrounding whitespace; from_chars is strict about the rest.
  while (!T.empty() && (T.front() == ' ' || T.front() == '\t'))
    T.remove_prefix(1);
  while (!T.empty() && (T.back() == ' ' || T.back() == '\t'))
    T.remove_suffix(1);
  if (T.empty())
    return false;
  const char *B = T.data(), *E = T.data() + T.size();
  auto [P, Ec] = std::from_chars(B, E, Out);
  return Ec == std::errc() && P == E;
}

} // namespace

std::optional<InputVector> bugassist::parseInputVector(std::string_view Text,
                                                       std::string &Error) {
  InputVector Out;
  size_t Pos = 0;
  auto skipWs = [&] {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t'))
      ++Pos;
  };
  skipWs();
  if (Pos == Text.size())
    return Out; // empty vector: entry with no parameters
  for (;;) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '[') {
      size_t Close = Text.find(']', Pos);
      if (Close == std::string_view::npos) {
        Error = "unterminated '[' in input";
        return std::nullopt;
      }
      std::vector<int64_t> Elems;
      std::string_view Inner = Text.substr(Pos + 1, Close - Pos - 1);
      size_t Start = 0;
      bool Empty = true;
      for (size_t I = 0; I <= Inner.size(); ++I) {
        if (I == Inner.size() || Inner[I] == ',') {
          std::string_view Item = Inner.substr(Start, I - Start);
          bool Blank = true;
          for (char C : Item)
            Blank = Blank && (C == ' ' || C == '\t');
          if (!Blank) {
            int64_t V;
            if (!parseScalar(Item, V)) {
              Error = "bad array element '" + std::string(Item) + "'";
              return std::nullopt;
            }
            Elems.push_back(V);
            Empty = false;
          } else if (!Empty || I != Inner.size()) {
            Error = "empty array element";
            return std::nullopt;
          }
          Start = I + 1;
        }
      }
      Out.push_back(InputValue::array(std::move(Elems)));
      Pos = Close + 1;
    } else {
      size_t End = Pos;
      while (End < Text.size() && Text[End] != ',')
        ++End;
      int64_t V;
      if (!parseScalar(Text.substr(Pos, End - Pos), V)) {
        Error = "bad input value '" +
                std::string(Text.substr(Pos, End - Pos)) + "'";
        return std::nullopt;
      }
      Out.push_back(InputValue::scalar(V));
      Pos = End;
    }
    skipWs();
    if (Pos == Text.size())
      break;
    if (Text[Pos] != ',') {
      Error = std::string("expected ',' before '") + Text[Pos] + "'";
      return std::nullopt;
    }
    ++Pos;
  }
  return Out;
}

bool bugassist::parseHardLinesSpec(std::string_view Spec,
                                   std::set<uint32_t> &Out) {
  constexpr int64_t MaxLine = 1000000;
  auto parseLine = [](std::string_view T, int64_t &V) {
    if (T.empty())
      return false;
    const char *B = T.data(), *E = T.data() + T.size();
    auto [P, Ec] = std::from_chars(B, E, V);
    return Ec == std::errc() && P == E;
  };
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string_view::npos)
      End = Spec.size();
    std::string_view Item = Spec.substr(Pos, End - Pos);
    if (Item.empty())
      return false;
    size_t Dash = Item.find('-');
    int64_t Lo = 0, Hi = 0;
    if (Dash == std::string_view::npos) {
      if (!parseLine(Item, Lo) || Lo < 1 || Lo > MaxLine)
        return false;
      Hi = Lo;
    } else {
      if (!parseLine(Item.substr(0, Dash), Lo) ||
          !parseLine(Item.substr(Dash + 1), Hi) || Lo < 1 || Hi < Lo ||
          Hi > MaxLine)
        return false;
    }
    for (int64_t L = Lo; L <= Hi; ++L)
      Out.insert(static_cast<uint32_t>(L));
    Pos = End + 1;
    if (End == Spec.size())
      break;
  }
  return true;
}

std::string bugassist::renderLocalizationReport(const LocalizationReport &R) {
  std::string Out;
  for (size_t I = 0; I < R.Diagnoses.size(); ++I) {
    const Diagnosis &D = R.Diagnoses[I];
    Out += "diagnosis " + std::to_string(I + 1) + " (cost " +
           std::to_string(D.Cost) + "): line" +
           (D.Lines.size() > 1 ? "s" : "");
    appendDiagnosisLines(Out, D);
    Out += '\n';
  }
  Out += "suspect lines:";
  for (uint32_t L : R.AllLines)
    Out += ' ' + std::to_string(L);
  Out += '\n';
  if (!R.Diagnoses.empty()) {
    Out += "line  hits\n";
    for (const auto &[Line, Hits] : lineHits(R))
      Out += "  " + std::to_string(Line) + "  " + std::to_string(Hits) + "/" +
             std::to_string(R.Diagnoses.size()) + "\n";
  }
  if (R.Exhausted)
    Out += "no more suspects (enumeration exhausted after " +
           std::to_string(R.Diagnoses.size()) + " diagnoses)\n";
  else if (R.Incomplete)
    // Deterministic at every thread count: only the count of *completed*
    // diagnoses appears, never the budget-dependent partial state.
    Out += "INCOMPLETE: resource budget exhausted after " +
           std::to_string(R.Diagnoses.size()) +
           " diagnoses (more may exist)\n";
  else
    Out += "diagnosis cap reached (" + std::to_string(R.Diagnoses.size()) +
           " diagnoses; more may exist)\n";
  return Out;
}

std::string bugassist::renderLocalizationJson(const LocalizationReport &R) {
  std::string Out = "{\n  \"diagnoses\": [";
  for (size_t I = 0; I < R.Diagnoses.size(); ++I) {
    const Diagnosis &D = R.Diagnoses[I];
    Out += I ? ",\n    " : "\n    ";
    Out += "{\"cost\": " + std::to_string(D.Cost) + ", \"lines\": [";
    for (size_t J = 0; J < D.Lines.size(); ++J)
      Out += (J ? ", " : "") + std::to_string(D.Lines[J]);
    Out += "], \"unwindings\": [";
    for (size_t J = 0; J < D.Unwindings.size(); ++J)
      Out += (J ? ", " : "") + std::to_string(D.Unwindings[J]);
    Out += "]}";
  }
  Out += R.Diagnoses.empty() ? "],\n" : "\n  ],\n";
  Out += "  \"suspect_lines\": [";
  for (size_t I = 0; I < R.AllLines.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(R.AllLines[I]);
  Out += "],\n  \"line_hits\": [";
  auto Hits = lineHits(R);
  for (size_t I = 0; I < Hits.size(); ++I)
    Out += std::string(I ? ", " : "") + "{\"line\": " +
           std::to_string(Hits[I].first) +
           ", \"hits\": " + std::to_string(Hits[I].second) + "}";
  Out += "],\n  \"exhausted\": ";
  Out += R.Exhausted ? "true" : "false";
  Out += ",\n  \"incomplete\": ";
  Out += R.Incomplete ? "true" : "false";
  Out += "\n}\n";
  return Out;
}

std::string bugassist::renderSearchStats(const LocalizationReport &R) {
  const SolverStats &S = R.Search;
  std::string Out;
  Out += "sat calls:    " + std::to_string(R.SatCalls) + "\n";
  Out += "conflicts:    " + std::to_string(S.Conflicts) + "\n";
  Out += "decisions:    " + std::to_string(S.Decisions) + "\n";
  Out += "propagations: " + std::to_string(S.Propagations) + "\n";
  Out += "restarts:     " + std::to_string(S.Restarts) + " (+" +
         std::to_string(S.RestartsBlocked) + " blocked)\n";
  Out += "learnts:      " + std::to_string(S.LearnedClauses) + " learned, " +
         std::to_string(S.DeletedLearnts) + " deleted\n";
  if (S.VarsEliminated || S.ClausesSubsumed || S.LitsSelfSubsumed ||
      S.ClausesRemoved)
    Out += "simplify:     " + std::to_string(S.VarsEliminated) +
           " vars eliminated, " + std::to_string(S.ClausesSubsumed) +
           " clauses subsumed, " + std::to_string(S.LitsSelfSubsumed) +
           " lits self-subsumed, " + std::to_string(S.ClausesRemoved) +
           " clauses removed, " + std::to_string(S.ReconstructBytes) +
           " reconstruction bytes\n";
  if (S.ClausesExported || S.ClausesImported)
    Out += "exchange:     " + std::to_string(S.ClausesExported) +
           " exported, " + std::to_string(S.ClausesImported) + " imported\n";
  if (!R.PortfolioWins.empty()) {
    Out += "races won:   ";
    for (uint64_t W : R.PortfolioWins)
      Out += ' ' + std::to_string(W);
    Out += '\n';
    Out += "race helpers: " + std::to_string(R.HelpersStarted) +
           " started, " + std::to_string(R.HelpersSkipped) + " skipped\n";
  }
  return Out;
}

std::string bugassist::renderLocalizeOutput(const PipelineResult &Res,
                                            bool Json) {
  switch (Res.Status) {
  case PipelineStatus::CompileError:
  case PipelineStatus::InputNotFailing:
    return ""; // reported out of band, never on stdout
  case PipelineStatus::NoCounterexample:
    return Res.Message + "\n";
  case PipelineStatus::Localized:
    break;
  }
  if (!Json)
    return "failing input: " + renderInputVector(Res.FailingInput) + "\n" +
           renderLocalizationReport(Res.Report);
  std::string Out =
      "{\n  \"input\": \"" + renderInputVector(Res.FailingInput) +
      "\",\n  \"report\": ";
  std::string Rep = renderLocalizationJson(Res.Report);
  // Indent the nested object by two spaces to keep the output readable.
  for (size_t I = 0; I < Rep.size(); ++I) {
    Out += Rep[I];
    if (Rep[I] == '\n' && I + 1 < Rep.size())
      Out += "  ";
  }
  Out += "}\n";
  return Out;
}

RepairPipelineResult bugassist::runRepairPipeline(const PreparedProgram &P,
                                                  const RepairRequest &R,
                                                  MaxSatSession *Session) {
  RepairPipelineResult Out;
  if (R.Inputs.empty()) {
    Out.Status = PipelineStatus::InputNotFailing;
    Out.Code = ErrorCode::BadRequest;
    Out.Message = "repair requires at least one failing input";
    return Out;
  }
  if (!R.Goldens.empty() && R.Goldens.size() != R.Inputs.size()) {
    Out.Status = PipelineStatus::InputNotFailing;
    Out.Code = ErrorCode::BadRequest;
    Out.Message = "golden count does not match input count";
    return Out;
  }

  // Localize Inputs[0] through the standard seam: this judges the input
  // concretely (InputNotFailing when it meets the spec) and yields the
  // canonical report the candidate lines come from.
  PipelineRequest L;
  L.Entry = R.Entry;
  L.Unroll = R.Unroll;
  L.Encode = R.Encode;
  L.Input = R.Inputs[0];
  if (!R.Goldens.empty())
    L.GoldenReturn = R.Goldens[0];
  L.CheckObligations = R.CheckObligations;
  L.Localize = R.Localize;
  PipelineResult LR = runLocalizePipeline(P, L, Session);
  Out.Status = LR.Status;
  Out.Code = LR.Code;
  Out.Message = LR.Message;
  Out.FailingInput = LR.FailingInput;
  Out.Report = std::move(LR.Report);
  if (LR.Status != PipelineStatus::Localized)
    return Out;

  // Candidate lines in first-seen diagnosis order: the first CoMSS is the
  // most likely fix location and gets mutated first.
  std::vector<uint32_t> Lines;
  std::set<uint32_t> Seen;
  for (const Diagnosis &D : Out.Report.Diagnoses)
    for (uint32_t Line : D.Lines)
      if (Seen.insert(Line).second)
        Lines.push_back(Line);

  RepairOptions RO = R.Repair;
  RO.CandidateLines = std::move(Lines);
  RO.Unroll = R.Unroll;
  RO.Localize = R.Localize;
  const std::vector<int64_t> *Goldens =
      R.Goldens.empty() ? nullptr : &R.Goldens;
  Out.Repair = repairProgram(*P.Prog, *P.Driver, R.Entry, R.Inputs,
                             LR.SpecUsed, Goldens, RO);

  if (Out.Report.Incomplete || (Out.Repair.Truncated && !Out.Repair.Found))
    Out.Code = ErrorCode::BudgetExhausted;
  else
    Out.Code = ErrorCode::Ok;
  return Out;
}

std::string bugassist::renderRepairOutput(const RepairPipelineResult &Res,
                                          bool Json) {
  switch (Res.Status) {
  case PipelineStatus::CompileError:
  case PipelineStatus::InputNotFailing:
  case PipelineStatus::NoCounterexample:
    return ""; // reported out of band, never on stdout
  case PipelineStatus::Localized:
    break;
  }
  const RepairResult &R = Res.Repair;
  const RepairStats &St = R.Stats;
  if (!Json) {
    std::string Out =
        "failing input: " + renderInputVector(Res.FailingInput) + "\n";
    Out += "suspect lines:";
    for (uint32_t L : R.SuspectLines)
      Out += ' ' + std::to_string(L);
    Out += '\n';
    Out += "prescreen: " + std::to_string(St.LinesScreenedOut) + " of " +
           std::to_string(St.LinesConsidered) + " lines ruled out (" +
           std::to_string(St.PrescreenSatCalls) + " sat calls)\n";
    Out += "candidates: " + std::to_string(R.CandidatesTried) + " tried of " +
           std::to_string(St.CandidatesPlanned) + " planned (" +
           std::to_string(St.TestScreenRejected) + " failed tests, " +
           std::to_string(St.BmcRejected) + " failed verification)\n";
    if (R.Found) {
      Out += "repair: line " + std::to_string(R.Suggestion.Line) + ": " +
             R.Suggestion.Description + "\n";
      Out += "fixed program:\n" + printProgram(*R.Suggestion.FixedProgram);
    } else if (R.Truncated) {
      Out += "repair: NONE within candidate budget (more candidates exist)\n";
    } else {
      Out += "repair: none validated (template space exhausted)\n";
    }
    return Out;
  }
  std::string Out = "{\n  \"input\": \"" +
                    renderInputVector(Res.FailingInput) + "\",\n";
  Out += "  \"found\": ";
  Out += R.Found ? "true" : "false";
  Out += ",\n";
  if (R.Found) {
    Out += "  \"line\": " + std::to_string(R.Suggestion.Line) + ",\n";
    Out += "  \"fix\": \"" + jsonEscape(R.Suggestion.Description) + "\",\n";
  }
  Out += "  \"suspect_lines\": [";
  for (size_t I = 0; I < R.SuspectLines.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(R.SuspectLines[I]);
  Out += "],\n";
  Out += "  \"truncated\": ";
  Out += R.Truncated ? "true" : "false";
  Out += ",\n  \"stats\": {\"lines_considered\": " +
         std::to_string(St.LinesConsidered) +
         ", \"lines_screened_out\": " + std::to_string(St.LinesScreenedOut) +
         ", \"prescreen_sat_calls\": " +
         std::to_string(St.PrescreenSatCalls) +
         ", \"candidates_planned\": " + std::to_string(St.CandidatesPlanned) +
         ", \"candidates_tried\": " + std::to_string(St.CandidatesTried) +
         ", \"sema_rejected\": " + std::to_string(St.SemaRejected) +
         ", \"test_screen_rejected\": " +
         std::to_string(St.TestScreenRejected) +
         ", \"bmc_rejected\": " + std::to_string(St.BmcRejected) +
         ", \"formula_builds\": " + std::to_string(St.FormulaBuilds) + "}";
  if (R.Found) {
    Out += ",\n  \"fixed_program\": \"" +
           jsonEscape(printProgram(*R.Suggestion.FixedProgram)) + "\"";
  }
  Out += "\n}\n";
  return Out;
}

namespace {

void appendModelLine(std::string &Out, const std::vector<LBool> &Model,
                     int NumVars, bool TrailingZero) {
  Out += 'v';
  for (int V = 0; V < NumVars; ++V) {
    Out += Model[V] == LBool::True ? " " : " -";
    Out += std::to_string(V + 1);
  }
  Out += TrailingZero ? " 0\n" : "\n";
}

} // namespace

std::string bugassist::renderMaxSatAnswer(const MaxSatResult &R, int NumVars,
                                          bool Model, bool Comments) {
  std::string Out;
  switch (R.Status) {
  case MaxSatStatus::Optimum:
    Out = "o " + std::to_string(R.Cost) + "\ns OPTIMUM FOUND\n";
    if (Model)
      appendModelLine(Out, R.Model, NumVars, /*TrailingZero=*/false);
    break;
  case MaxSatStatus::HardUnsat:
    Out = "s UNSATISFIABLE\n";
    break;
  case MaxSatStatus::Unknown:
    // Anytime output: the o-line reports the best (timing-dependent)
    // upper bound witnessed before the budget bit, v its model.
    if (R.UpperBound == UINT64_MAX)
      return "s UNKNOWN\n";
    Out = "o " + std::to_string(R.UpperBound) + "\n";
    if (Comments && R.LowerBound > 0)
      Out += "c lower bound " + std::to_string(R.LowerBound) + "\n";
    Out += "s UNKNOWN\n";
    if (Model && !R.BestModel.empty())
      appendModelLine(Out, R.BestModel, NumVars, /*TrailingZero=*/false);
    break;
  }
  return Out;
}

std::string bugassist::renderSatAnswer(const SatRaceResult &R, int NumVars,
                                       bool Model, bool Comments) {
  std::string Out = R.Result == LBool::True    ? "s SATISFIABLE\n"
                    : R.Result == LBool::False ? "s UNSATISFIABLE\n"
                                               : "s UNKNOWN\n";
  if (Comments && R.PerWorker.size() > 1 && R.Winner >= 0)
    Out += "c winner=worker " + std::to_string(R.Winner) + "\n";
  if (Model && R.Result == LBool::True)
    appendModelLine(Out, R.Model, NumVars, /*TrailingZero=*/true);
  return Out;
}
