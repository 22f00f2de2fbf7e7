//===- options_test.cpp - The option table's own contract ---------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
// The table in serve/OptionTable.h is the single source of every CLI flag
// and serve request key. These tests hold it to that: each flag and key
// names one row per command, and each is documented in docs/CLI.md or
// docs/SERVE.md. That the CLI and serve decode a row identically is
// checked end to end in serve_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "serve/OptionTable.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace bugassist;

namespace {

std::string readDoc(const std::string &Name) {
  std::ifstream In(std::string(BUGASSIST_DOCS_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot read docs/" << Name;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(OptionTable, EachFlagAndKeyNamesOneRowPerCommand) {
  std::set<std::pair<std::string, Command>> Flags, Keys;
  for (const OptionSpec &S : optionTable()) {
    EXPECT_TRUE(S.Flag || S.Key) << S.Help;
    EXPECT_NE(S.Set, nullptr) << S.Help;
    for (const CommandInfo &C : commands()) {
      if (S.Flag && (S.Cli & cmdBit(C.Cmd))) {
        EXPECT_TRUE(Flags.insert({S.Flag, C.Cmd}).second)
            << S.Flag << " twice for " << C.Name;
      }
      if (S.Key && (S.Json & cmdBit(C.Cmd))) {
        EXPECT_TRUE(C.Request) << S.Key << " on non-request " << C.Name;
        EXPECT_TRUE(Keys.insert({S.Key, C.Cmd}).second)
            << S.Key << " twice for " << C.Name;
      }
    }
  }
}

TEST(OptionTable, EveryFlagAndKeyIsDocumented) {
  const std::string CliDoc = readDoc("CLI.md");
  const std::string ServeDoc = readDoc("SERVE.md");
  for (const OptionSpec &S : optionTable()) {
    if (S.Flag) {
      EXPECT_NE(CliDoc.find(std::string("`") + S.Flag), std::string::npos)
          << S.Flag << " is missing from docs/CLI.md";
    }
    if (S.Key) {
      EXPECT_NE(ServeDoc.find(std::string("`") + S.Key + "`"),
                std::string::npos)
          << S.Key << " is missing from docs/SERVE.md";
    }
  }
  for (const CommandInfo &C : commands())
    EXPECT_NE(CliDoc.find(std::string("bugassist ") + C.Name),
              std::string::npos)
        << C.Name << " is missing from docs/CLI.md";
}

TEST(OptionTable, UsageListsEveryFlagWithItsRange) {
  const std::string Usage = renderUsage("bugassist");
  for (const OptionSpec &S : optionTable()) {
    if (!S.Flag)
      continue;
    EXPECT_NE(Usage.find(std::string(S.Flag) + " "), std::string::npos)
        << S.Flag;
    if (S.Kind == OptionKind::Integer || S.Kind == OptionKind::Seconds) {
      EXPECT_NE(Usage.find(rangeText(S)), std::string::npos)
          << S.Flag << ": " << rangeText(S);
    }
  }
}
