//===- Pipeline.h - End-to-end localization pipeline ------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one driver seam behind every front-end: the `bugassist` CLI, serve,
/// fuzz, and the bench harnesses all run source -> parse -> sema ->
/// unroll -> trace formula (prepareProgram) -> counterexample search ->
/// CoMSS enumeration (runLocalizePipeline on the PreparedProgram) instead
/// of each wiring the stages by hand.
///
/// The pipeline also owns the two workflow conveniences the paper's
/// Section 6.1 methodology needs around the core algorithm:
///
///  * segregateFailingTests -- judge a test pool against a golden program
///    version and collect the failing inputs with their expected outputs;
///  * renderLocalizationReport / renderLocalizationJson -- the canonical
///    serializations of a LocalizationReport. The CLI prints these
///    verbatim, so a library caller can diff its own report against CLI
///    output byte for byte (the reports are deterministic at every
///    portfolio width; solver statistics, which are not, are rendered
///    separately via renderSearchStats).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_CORE_PIPELINE_H
#define BUGASSIST_CORE_PIPELINE_H

#include "core/BugAssist.h"
#include "core/ErrorCode.h"
#include "core/Repair.h"
#include "lang/Sema.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bugassist {

struct SatRaceResult;

/// Everything runLocalizePipeline needs besides the program itself.
struct PipelineRequest {
  std::string Entry = "main";
  UnrollOptions Unroll;
  EncodeOptions Encode; ///< BitWidth is synced from Unroll by the driver
  /// The failing input. When absent, the pipeline finds a counterexample
  /// to the spec by bounded model checking (Section 4.1) -- only possible
  /// for obligation specs, since a golden return is input-specific.
  std::optional<InputVector> Input;
  /// Expected return value for Input: the spec becomes "returns this"
  /// (the wrong-output failures of the TCAS methodology).
  std::optional<int64_t> GoldenReturn;
  /// Check assert/bounds obligations as part of the spec.
  bool CheckObligations = true;
  /// Localization knobs. Localize.Budget covers the whole query: the
  /// counterexample search when Input is absent, then the enumeration
  /// with whatever the search left.
  LocalizeOptions Localize;
};

enum class PipelineStatus {
  Localized,      ///< Report holds the diagnoses
  CompileError,   ///< parse/sema failed; Message holds the diagnostics
  /// BMC found no failing input within bounds -- or, with Code
  /// BudgetExhausted and Report.Incomplete set, the query's budget (or an
  /// interrupt) stopped the search before it decided
  NoCounterexample,
  InputNotFailing ///< the given input satisfies the spec; nothing to blame
};

struct PipelineResult {
  PipelineStatus Status = PipelineStatus::CompileError;
  /// Structured classification of the outcome (core/ErrorCode.h): Ok for
  /// Localized / NoCounterexample runs that completed, BudgetExhausted
  /// when the report is budget-truncated, else the specific failure code.
  /// Front-ends branch on this instead of matching Message strings.
  ErrorCode Code = ErrorCode::CompileError;
  /// Diagnostics (CompileError) or a human-readable explanation for the
  /// other non-Localized statuses.
  std::string Message;
  /// The input that was localized (the given one, or the BMC-found one).
  InputVector FailingInput;
  /// The spec the failing input violates.
  Spec SpecUsed;
  LocalizationReport Report;
};

/// Runs the full pipeline from source text: prepareProgram, then the
/// prepared overload below.
PipelineResult runLocalizePipeline(std::string_view Source,
                                   const PipelineRequest &R);

/// The front half of the pipeline, done once: a parsed program with its
/// unroll + encode driver. Serve mode caches these keyed by source text +
/// entry + options (serve/FormulaCache.h) and answers every query on the
/// cached copy. Safe to share across threads: every query-answering entry
/// point below only reads it.
struct PreparedProgram {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<BugAssistDriver> Driver;
};

/// Runs parse -> sema -> unroll -> encode once. \returns nullptr and fills
/// \p Error with the rendered diagnostics when the source does not
/// compile. \p Unroll.BitWidth is propagated into the encoder exactly as
/// the one-shot pipeline does.
std::unique_ptr<PreparedProgram> prepareProgram(std::string_view Source,
                                                const std::string &Entry,
                                                const UnrollOptions &Unroll,
                                                const EncodeOptions &Encode,
                                                std::string &Error);

/// The back half of the pipeline on a prepared program: judge the input
/// (or find one by BMC), then enumerate CoMSSes. \p R's Entry, Unroll,
/// and Encode fields MUST equal the prepare-time values (serve guarantees
/// this by keying its cache on them); only the per-query fields (Input,
/// GoldenReturn, CheckObligations, Localize) vary.
///
/// When \p Session is non-null it must be a fresh, never-solved session
/// over Driver->formula().sharedInstance() -- e.g. a clone() of a cached
/// base session -- and the enumeration runs on it (R.Localize's
/// Threads/Weighted/ConflictBudget session knobs are then fixed by the
/// session itself; its budget knobs still apply). Otherwise localizeFault
/// builds the session. Reports are canonical, so both paths produce
/// byte-identical output. When \p Bmc is non-null it must be an empty
/// solver; the counterexample search runs on it, so a caller holding it
/// (serve's watchdog and drain) can interrupt the search.
PipelineResult runLocalizePipeline(const PreparedProgram &P,
                                   const PipelineRequest &R,
                                   MaxSatSession *Session = nullptr,
                                   Solver *Bmc = nullptr);

/// Everything runRepairPipeline needs besides the prepared program: the
/// localize knobs plus the repair knobs and the failing test set.
struct RepairRequest {
  std::string Entry = "main";
  UnrollOptions Unroll;
  EncodeOptions Encode;
  /// Failing tests (at least one). Inputs[0] drives localization; all of
  /// them screen repair candidates.
  std::vector<InputVector> Inputs;
  /// Expected (golden) return per input, parallel to Inputs. Empty =
  /// obligation spec only.
  std::vector<int64_t> Goldens;
  bool CheckObligations = true;
  LocalizeOptions Localize;
  /// CandidateLines/Unroll/Localize inside are overwritten by the driver
  /// (lines come from the localization report, the rest from above).
  RepairOptions Repair;
};

struct RepairPipelineResult {
  PipelineStatus Status = PipelineStatus::CompileError;
  /// Ok when the repair search decided (found a fix or exhausted the
  /// template space); BudgetExhausted when either the localization report
  /// or the candidate search was truncated by a budget; else the failure.
  ErrorCode Code = ErrorCode::CompileError;
  std::string Message;
  InputVector FailingInput;
  /// The localization the candidate lines came from (canonical).
  LocalizationReport Report;
  RepairResult Repair;
};

/// Algorithm 2 through the pipeline seam: judges Inputs[0] concretely,
/// localizes it (on \p Session when given -- serve's cloned session pool),
/// derives candidate lines from the report in first-seen diagnosis order,
/// and runs the pooled repairProgram overload against P.Driver's formula
/// (prescreen + no localization rebuild). Requirements on \p R's
/// Entry/Unroll/Encode and on \p Session match runLocalizePipeline.
RepairPipelineResult runRepairPipeline(const PreparedProgram &P,
                                       const RepairRequest &R,
                                       MaxSatSession *Session = nullptr);

/// The canonical stdout of a repair run, shared verbatim by `bugassist
/// repair` and serve's `repair` command (deterministic: work counters
/// only, no wall-clock or solver search statistics). Error statuses
/// render empty, as with renderLocalizeOutput.
std::string renderRepairOutput(const RepairPipelineResult &Res, bool Json);

/// The answer lines of a MaxSAT run, MaxSAT-Evaluation style: `o <cost>`
/// (the optimum, or the best upper bound a budget-stopped run found), the
/// `s` line, and with \p Model the `v` line over \p NumVars variables.
/// \p Comments adds the `c lower bound` line a budget-stopped run proved;
/// `bugassist maxsat` prints it, serve bodies carry no `c` lines.
std::string renderMaxSatAnswer(const MaxSatResult &R, int NumVars, bool Model,
                               bool Comments);

/// The answer lines of a SAT race: the `s` line and with \p Model the
/// `v` line ending in 0. \p Comments adds `c winner=worker N` between
/// them when more than one worker raced.
std::string renderSatAnswer(const SatRaceResult &R, int NumVars, bool Model,
                            bool Comments);

/// The failing subset of a test pool, judged against a golden program
/// version (Section 6.1: run both, keep inputs where the outputs differ).
struct FailingTests {
  std::vector<InputVector> Inputs;
  /// Expected (golden) return value per failing input, parallel to Inputs.
  std::vector<int64_t> Goldens;
  /// Regression witnesses: pool inputs where the faulty version already
  /// agrees with the golden one, with their (identical) return values.
  /// Algorithm 2's candidate screen replays these alongside the failing
  /// tests -- a "fix" that repairs the failures by breaking previously
  /// passing behavior is an imposter and must be rejected.
  std::vector<InputVector> PassingInputs;
  std::vector<int64_t> PassingGoldens;
  /// Size of the pool that was screened.
  size_t PoolSize = 0;
};

/// Runs \p Entry of \p Golden on every pool input and returns the return
/// values. Compute this once per pool and golden version, then screen
/// every faulty version against it with segregateFailingTests below.
std::vector<int64_t> goldenOutputs(const Program &Golden,
                                   const std::vector<InputVector> &Pool,
                                   const std::string &Entry,
                                   const ExecOptions &EO);

/// Screens \p Pool against the golden outputs \p GoldenOut (parallel to
/// \p Pool, from goldenOutputs): runs \p Entry of \p Faulty on every
/// input and collects up to \p MaxTests inputs where its return differs
/// from the golden one, plus up to \p MaxPassing agreeing inputs as
/// regression witnesses for the repair candidate screen.
FailingTests segregateFailingTests(const std::vector<int64_t> &GoldenOut,
                                   const Program &Faulty,
                                   const std::vector<InputVector> &Pool,
                                   const std::string &Entry,
                                   const ExecOptions &EO,
                                   size_t MaxTests = SIZE_MAX,
                                   size_t MaxPassing = 0);

/// Renders an input vector as the CLI's `--input` syntax: scalars
/// comma-separated, arrays bracketed (`3,[1,2,4],0`).
std::string renderInputVector(const InputVector &In);

/// Parses the `--input` syntax back into an InputVector. \returns
/// std::nullopt and fills \p Error on malformed input.
std::optional<InputVector> parseInputVector(std::string_view Text,
                                            std::string &Error);

/// Parses a hard-lines spec -- comma-separated line numbers or A-B ranges
/// (`3,10-12`) -- into \p Out, as the CLI's `--hard-lines` and the serve
/// protocol's `hard_lines` field use it. Line numbers are capped at 1e6:
/// far above any real source file, low enough that a typo'd range cannot
/// hang the caller or wrap uint32_t. \returns false on malformed specs.
bool parseHardLinesSpec(std::string_view Spec, std::set<uint32_t> &Out);

/// Canonical text form of a report: one line per diagnosis, the suspect
/// union, per-line hit counts, and the termination reason. Deterministic
/// at every thread count (no solver statistics).
std::string renderLocalizationReport(const LocalizationReport &R);

/// Canonical JSON form of the same data.
std::string renderLocalizationJson(const LocalizationReport &R);

/// Solver statistics block (conflicts, propagations, portfolio wins...).
/// NOT deterministic across thread counts or machines; kept out of the
/// canonical report so that byte-for-byte comparisons stay meaningful.
std::string renderSearchStats(const LocalizationReport &R);

/// The canonical stdout of a localize run: exactly what `bugassist
/// localize` prints for \p Res (the CLI and serve mode both emit this
/// verbatim, which is what makes their outputs byte-comparable).
/// Localized renders the failing input plus the text or JSON report;
/// NoCounterexample renders the explanatory message; the error statuses
/// (CompileError, InputNotFailing) render empty -- their messages travel
/// on stderr (CLI) or in the response header (serve).
std::string renderLocalizeOutput(const PipelineResult &Res, bool Json);

} // namespace bugassist

#endif // BUGASSIST_CORE_PIPELINE_H
