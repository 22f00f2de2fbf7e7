//===- Parser.h - Mini-C recursive-descent parser ---------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser building the mini-C AST. `for` loops are
/// desugared into `while` loops at parse time so downstream passes handle a
/// single loop construct.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_LANG_PARSER_H
#define BUGASSIST_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>

namespace bugassist {

/// Syntax-tree height cap: a statement or expression nested deeper than
/// this is a located compile error ("nesting too deep"), so no later pass
/// recursing over the tree can exhaust the stack. Far above what real
/// programs use; at the cap, localize and repair need under half of an
/// 8 MiB stack even in an ASan build.
constexpr unsigned MaxNestingDepth = 256;

/// Parses one translation unit. On syntax errors, diagnostics are reported
/// and nullptr is returned.
std::unique_ptr<Program> parseProgram(std::string_view Source,
                                      DiagEngine &Diags);

} // namespace bugassist

#endif // BUGASSIST_LANG_PARSER_H
