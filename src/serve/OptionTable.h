//===- OptionTable.h - One table of CLI flags and serve keys ---*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every knob of the `bugassist` tool, declared once. A row names the CLI
/// spelling, the serve request key, the value kind and range, the
/// commands each surface accepts it for, a setter into CommandOptions,
/// and its help line. Two small decoders walk the same rows with the same
/// validators -- parseCommandLine over argv, parseRequest over one JSON
/// request object -- so a value means the same thing, and is rejected the
/// same way, on both surfaces. renderUsage generates the CLI's --help text
/// from the rows; docs/CLI.md and docs/SERVE.md document them (a test
/// checks that every row appears there).
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SERVE_OPTIONTABLE_H
#define BUGASSIST_SERVE_OPTIONTABLE_H

#include "core/ErrorCode.h"
#include "core/Pipeline.h"
#include "mutate/FuzzSweep.h"
#include "serve/LocalizeServer.h"

#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace bugassist {

struct JsonValue;

/// The `bugassist` commands. The first four are also serve request cmds.
enum class Command { Localize, Repair, MaxSat, Sat, Fuzz, Serve, DumpTcas };

struct CommandInfo {
  Command Cmd;
  const char *Name;
  const char *Args;    ///< usage synopsis after the name
  const char *Summary; ///< usage one-liner
  bool Request;        ///< a serve request may name it as its `cmd`
};

/// The command table, in usage order.
const std::vector<CommandInfo> &commands();
/// The command named \p Name, or nullptr.
const CommandInfo *findCommand(std::string_view Name);
const char *commandName(Command C);

/// Everything an option can set: the request structs themselves plus the
/// front-end switches that belong to no request. One command reads only
/// the fields its rows set.
struct CommandOptions {
  /// localize; repair reads Entry/Unroll/Encode/CheckObligations/Localize
  /// from here too, and maxsat/sat read Localize's Threads, Preprocess
  /// and Budget.
  PipelineRequest Pipeline;
  bool Json = false;
  bool Stats = false;
  // repair: the failing tests and Algorithm 2's knobs.
  std::vector<InputVector> Inputs;
  std::vector<int64_t> Goldens;
  RepairOptions Repair;
  // maxsat / sat.
  std::string Engine = "auto";
  bool Model = true;
  // fuzz.
  FuzzOptions Fuzz;
  size_t Pool = 0; ///< 0 = the subject's default
  bool Progress = false;
  bool UnrollGiven = false; ///< --unwind/--bitwidth/--no-bounds seen
  // serve (the CLI command).
  ServeOptions Serve;
  std::string Batch;
  std::string Faults;
  // serve requests: the id, and the program (mini-C or DIMACS text).
  std::string Id;
  std::string Program;
  std::string File;       ///< `file` path, read by parseRequest
  int ProgramSources = 0; ///< source/tcas/file/wcnf/cnf fields given

  /// The RepairRequest these options describe.
  RepairRequest repairRequest() const;

  /// maxsat: whether Engine selects the weighted linear search, given
  /// whether the instance has a soft weight other than 1
  /// (\p AnyNonUnitWeight). Fu-Malik ignores weights, so `auto` picks
  /// linear search exactly then.
  bool weightedEngine(bool AnyNonUnitWeight) const {
    return Engine == "linear" || (Engine == "auto" && AnyNonUnitWeight);
  }
};

enum class OptionKind {
  Flag,        ///< CLI: present = true; JSON: a boolean
  NegatedBool, ///< CLI `--no-x`: present = false; JSON: a boolean
  Integer,     ///< in [Min, Max]
  Seconds,     ///< a number in (0, 1e9]
  String,
  Input,     ///< an input vector, `3,[1,2],0`
  HardLines, ///< a line spec, `3,10-12`
  Enum,      ///< one of Choices
  List,      ///< comma-separated fault class names
};

/// A decoded value, in the member its row's kind fills.
struct OptionValue {
  bool Bool = false;
  uint64_t Uint = 0; ///< Integer rows with Min >= 0
  int64_t Int = 0;   ///< Integer rows with Min < 0
  double Seconds = 0;
  std::string Text; ///< String, Enum
  InputVector Input;
  std::set<uint32_t> Lines;
  std::vector<ErrorType> Classes;
};

/// Bit of \p C in OptionSpec::Cli / OptionSpec::Json.
constexpr unsigned cmdBit(Command C) { return 1u << static_cast<unsigned>(C); }

struct OptionSpec {
  const char *Flag; ///< CLI spelling; nullptr = serve only
  const char *Key;  ///< serve request key; nullptr = CLI only
  OptionKind Kind;
  unsigned Cli;     ///< cmdBit mask of the commands taking Flag
  unsigned Json;    ///< cmdBit mask of the request cmds taking Key
  const char *Meta; ///< the value's name in usage text
  const char *Help;
  void (*Set)(CommandOptions &O, const OptionValue &V);
  int64_t Min = 0; ///< Integer range
  uint64_t Max = 0;
  const char *Choices = nullptr; ///< Enum: `|`-separated values
  /// Repeatable: each CLI occurrence adds one value; JSON takes an array.
  bool Repeated = false;
};

/// The option table.
const std::vector<OptionSpec> &optionTable();

/// The range of an Integer or Seconds row, e.g. "[1, 64]".
std::string rangeText(const OptionSpec &S);

/// What a row accepts, e.g. "an integer in [1, 64]".
std::string describeValue(const OptionSpec &S);

/// Decodes the options of \p C from argv (after the command's positional
/// argument). \returns false with \p Error set on an unknown option, a
/// value flag given last without its value, or a value out of range.
bool parseCommandLine(Command C, int Argc, char **Argv, CommandOptions &O,
                      std::string &Error);

/// Decodes one serve request object. \p O.Id should hold the default id
/// (the request number); it is replaced by an explicit `id`. \returns
/// false with \p Error and \p Code set on an invalid request.
bool parseRequest(const JsonValue &Root, Command &C, CommandOptions &O,
                  std::string &Error, ErrorCode &Code);

/// repair's cross-field rules: at least one input, and goldens (when
/// given) matching the inputs in number.
bool checkRepairTests(const CommandOptions &O, std::string &Error);

/// The CLI's --help text, generated from the command and option tables.
std::string renderUsage(const char *Argv0);

} // namespace bugassist

#endif // BUGASSIST_SERVE_OPTIONTABLE_H
