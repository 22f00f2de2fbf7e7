//===- BenchJson.h - shared bench JSON emitter ------------------*- C++ -*-===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one writer of the bench JSON file (BENCH_solvers.json by default):
///
///   {"bench": ..., "hardware_concurrency": N, "workloads": [{...}, ...]}
///
/// Two benches share the file. bench_repair_offbyone owns the
/// `repair_offbyone*` workloads and bench_solvers owns every other one;
/// each run replaces only its own entries and keeps the rest, so the two
/// can run in either order. A file that exists but does not parse is an
/// error and is left untouched -- a merge never silently drops data.
///
//===----------------------------------------------------------------------===//

#ifndef BUGASSIST_BENCH_BENCHJSON_H
#define BUGASSIST_BENCH_BENCHJSON_H

#include "serve/Json.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bugassist {

/// \p S as a JSON string literal, quotes included.
inline std::string jsonString(std::string_view S) {
  return "\"" + jsonEscape(S) + "\"";
}

/// Re-serializes a parsed JSON tree compactly. Numbers keep their raw
/// token (Json.h preserves it), so kept entries round-trip exactly.
inline std::string renderJson(const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    return "null";
  case JsonValue::Kind::Bool:
    return V.BoolVal ? "true" : "false";
  case JsonValue::Kind::Number:
    return V.Text;
  case JsonValue::Kind::String:
    return jsonString(V.Text);
  case JsonValue::Kind::Array: {
    std::string Out = "[";
    for (size_t I = 0; I < V.Elements.size(); ++I)
      Out += (I ? ", " : "") + renderJson(V.Elements[I]);
    return Out + "]";
  }
  case JsonValue::Kind::Object: {
    std::string Out = "{";
    for (size_t I = 0; I < V.Members.size(); ++I)
      Out += (I ? ", " : "") + jsonString(V.Members[I].first) + ": " +
             renderJson(V.Members[I].second);
    return Out + "}";
  }
  }
  return "null";
}

/// Read-merge-write of \p Path. \p Head holds top-level keys with their
/// rendered JSON values; they replace same-named keys in the file, and
/// the file's other top-level keys stay. \p Fresh holds rendered workload
/// objects, which replace every existing workload the caller owns (the
/// `repair_offbyone*` ones when \p RepairOwner, all others otherwise).
/// \returns false with \p Error set, leaving the file untouched, when it
/// exists but is not a JSON object with a `workloads` array, or cannot be
/// written.
inline bool
mergeBenchJson(const std::string &Path,
               const std::vector<std::pair<std::string, std::string>> &Head,
               const std::vector<std::string> &Fresh, bool RepairOwner,
               std::string &Error) {
  std::vector<std::pair<std::string, std::string>> Keys;
  std::vector<std::string> Kept;
  if (std::ifstream In{Path}) {
    std::stringstream SS;
    SS << In.rdbuf();
    auto Root = parseJson(SS.str(), Error);
    const JsonValue *Workloads = Root ? Root->find("workloads") : nullptr;
    if (!Workloads || Workloads->K != JsonValue::Kind::Array) {
      Error = Path + ": existing file is not bench JSON" +
              (Error.empty() ? "" : " (" + Error + ")");
      return false;
    }
    for (const auto &[Key, Value] : Root->Members)
      if (Key != "workloads")
        Keys.emplace_back(Key, renderJson(Value));
    for (const JsonValue &W : Workloads->Elements) {
      const JsonValue *Name = W.find("name");
      bool Repair = Name && Name->Text.rfind("repair_offbyone", 0) == 0;
      if (Repair != RepairOwner)
        Kept.push_back(renderJson(W));
    }
  }
  for (const auto &[Key, Value] : Head) {
    auto It = Keys.begin();
    while (It != Keys.end() && It->first != Key)
      ++It;
    if (It == Keys.end())
      Keys.emplace_back(Key, Value);
    else
      It->second = Value;
  }
  Kept.insert(Kept.end(), Fresh.begin(), Fresh.end());

  std::string Out = "{\n";
  for (const auto &[Key, Value] : Keys)
    Out += "  " + jsonString(Key) + ": " + Value + ",\n";
  Out += "  \"workloads\": [\n";
  for (size_t I = 0; I < Kept.size(); ++I)
    Out += "    " + Kept[I] + (I + 1 < Kept.size() ? ",\n" : "\n");
  Out += "  ]\n}\n";

  // Write a sibling and rename it over the file, so a failed write never
  // leaves a truncated file behind.
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "w");
  bool Ok = F && std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  Ok = F && std::fclose(F) == 0 && Ok;
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    Error = "cannot write " + Path;
    return false;
  }
  return true;
}

} // namespace bugassist

#endif // BUGASSIST_BENCH_BENCHJSON_H
