//===- JsonEscape.h - JSON string escaping ----------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper, shared by every JSON writer: the repair
/// renderer, serve's response frames (re-exported by serve/Json.h), and
/// the bench JSON emitter.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_SUPPORT_JSONESCAPE_H
#define BUGASSIST_SUPPORT_JSONESCAPE_H

#include <string>
#include <string_view>

namespace bugassist {

/// Escapes \p S for inclusion inside a JSON string literal (quotes not
/// included): `"` `\` and control characters, everything else verbatim.
std::string jsonEscape(std::string_view S);

} // namespace bugassist

#endif // BUGASSIST_SUPPORT_JSONESCAPE_H
