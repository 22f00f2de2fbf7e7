//===- parser_test.cpp - Parser tests ------------------------------------------===//
//
// Part of BugAssist-Repro (Jose & Majumdar, PLDI 2011 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/AstPrinter.h"

#include <gtest/gtest.h>

using namespace bugassist;

namespace {

std::unique_ptr<Program> parseOk(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.render();
  return P;
}

void parseFails(std::string_view Src) {
  DiagEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P == nullptr || Diags.hasErrors());
}

/// Fishes the first statement out of the only function.
const Stmt *firstStmt(const Program &P) {
  return P.functions().front()->body()->stmts().front().get();
}

} // namespace

TEST(Parser, EmptyProgram) {
  auto P = parseOk("");
  EXPECT_TRUE(P->functions().empty());
  EXPECT_TRUE(P->globals().empty());
}

TEST(Parser, GlobalDeclarations) {
  auto P = parseOk("int x; bool b = true; int arr[10]; int y = 5;");
  ASSERT_EQ(P->globals().size(), 4u);
  EXPECT_EQ(P->globals()[0]->name(), "x");
  EXPECT_TRUE(P->globals()[1]->type().isBool());
  EXPECT_TRUE(P->globals()[2]->type().isArray());
  EXPECT_EQ(P->globals()[2]->type().ArraySize, 10);
  EXPECT_TRUE(P->globals()[3]->init() != nullptr);
}

TEST(Parser, FunctionWithParams) {
  auto P = parseOk("int add(int a, int b) { return a + b; }");
  ASSERT_EQ(P->functions().size(), 1u);
  const FunctionDecl *F = P->functions()[0].get();
  EXPECT_EQ(F->name(), "add");
  ASSERT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->params()[1]->name(), "b");
  EXPECT_TRUE(F->returnType().isInt());
}

TEST(Parser, ArrayParameter) {
  auto P = parseOk("int first(int a[4]) { return a[0]; }");
  const FunctionDecl *F = P->functions()[0].get();
  ASSERT_EQ(F->params().size(), 1u);
  EXPECT_TRUE(F->params()[0]->type().isArray());
  EXPECT_EQ(F->params()[0]->type().ArraySize, 4);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto P = parseOk("int f(int x) { return 1 + x * 2; }");
  const auto *Ret = cast<ReturnStmt>(firstStmt(*P));
  EXPECT_EQ(printExpr(Ret->value()), "(1 + (x * 2))");
}

TEST(Parser, PrecedenceComparisonOverLogical) {
  auto P = parseOk("bool f(int x, int y) { return x < 1 && y > 2; }");
  const auto *Ret = cast<ReturnStmt>(firstStmt(*P));
  EXPECT_EQ(printExpr(Ret->value()), "((x < 1) && (y > 2))");
}

TEST(Parser, PrecedenceShiftVsAdd) {
  auto P = parseOk("int f(int x) { return x + 1 << 2; }");
  const auto *Ret = cast<ReturnStmt>(firstStmt(*P));
  // C precedence: addition binds tighter than shifts.
  EXPECT_EQ(printExpr(Ret->value()), "((x + 1) << 2)");
}

TEST(Parser, BitwisePrecedenceChain) {
  auto P = parseOk("int f(int x) { return x & 1 ^ x | 2; }");
  const auto *Ret = cast<ReturnStmt>(firstStmt(*P));
  EXPECT_EQ(printExpr(Ret->value()), "(((x & 1) ^ x) | 2)");
}

TEST(Parser, LeftAssociativity) {
  auto P = parseOk("int f(int x) { return x - 1 - 2; }");
  const auto *Ret = cast<ReturnStmt>(firstStmt(*P));
  EXPECT_EQ(printExpr(Ret->value()), "((x - 1) - 2)");
}

TEST(Parser, ConditionalExpressionRightAssoc) {
  auto P = parseOk(
      "int f(bool a, bool b) { return a ? 1 : b ? 2 : 3; }");
  const auto *Ret = cast<ReturnStmt>(firstStmt(*P));
  EXPECT_EQ(printExpr(Ret->value()), "(a ? 1 : (b ? 2 : 3))");
}

TEST(Parser, UnaryOperators) {
  auto P = parseOk("int f(int x, bool b) { return -x + (b ? ~x : x); }");
  const auto *Ret = cast<ReturnStmt>(firstStmt(*P));
  EXPECT_EQ(printExpr(Ret->value()), "(-(x) + (b ? ~(x) : x))");
}

TEST(Parser, IfElseChain) {
  auto P = parseOk("int f(int x) {"
                   "  if (x < 0) return 0;"
                   "  else if (x < 10) return 1;"
                   "  else return 2;"
                   "}");
  const auto *If = cast<IfStmt>(firstStmt(*P));
  EXPECT_TRUE(If->elseStmt() != nullptr);
  EXPECT_TRUE(isa<IfStmt>(If->elseStmt()));
}

TEST(Parser, DanglingElseBindsToInner) {
  auto P = parseOk("int f(bool a, bool b) {"
                   "  if (a) if (b) return 1; else return 2;"
                   "  return 3;"
                   "}");
  const auto *Outer = cast<IfStmt>(firstStmt(*P));
  EXPECT_TRUE(Outer->elseStmt() == nullptr);
  const auto *Inner = cast<IfStmt>(Outer->thenStmt());
  EXPECT_TRUE(Inner->elseStmt() != nullptr);
}

TEST(Parser, WhileLoop) {
  auto P = parseOk("int f(int n) { int i = 0; while (i < n) i = i + 1; return i; }");
  const auto &Stmts = P->functions()[0]->body()->stmts();
  EXPECT_TRUE(isa<WhileStmt>(Stmts[1].get()));
}

TEST(Parser, ForLoopDesugarsToWhile) {
  auto P = parseOk(
      "int f(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) s = s + i; return s; }");
  const auto &Stmts = P->functions()[0]->body()->stmts();
  // for(...) becomes a block { init; while (cond) { body; step; } }.
  const auto *B = cast<BlockStmt>(Stmts[2].get());
  ASSERT_EQ(B->stmts().size(), 2u);
  EXPECT_TRUE(isa<AssignStmt>(B->stmts()[0].get()));
  const auto *W = cast<WhileStmt>(B->stmts()[1].get());
  const auto *Body = cast<BlockStmt>(W->body());
  ASSERT_EQ(Body->stmts().size(), 2u);
}

TEST(Parser, ArrayAssignment) {
  auto P = parseOk("int g(int a[3], int i) { a[i + 1] = 7; return a[i]; }");
  const auto *A = cast<AssignStmt>(firstStmt(*P));
  EXPECT_EQ(A->target(), "a");
  EXPECT_TRUE(A->index() != nullptr);
}

TEST(Parser, AssertAssume) {
  auto P = parseOk("void f(int x) { assume(x > 0); assert(x != 0); }");
  const auto &Stmts = P->functions()[0]->body()->stmts();
  EXPECT_TRUE(isa<AssumeStmt>(Stmts[0].get()));
  EXPECT_TRUE(isa<AssertStmt>(Stmts[1].get()));
}

TEST(Parser, CallStatementAndExpression) {
  auto P = parseOk("void init() { }"
                   "int get(int i) { return i; }"
                   "int f() { init(); return get(3) + get(4); }");
  ASSERT_EQ(P->functions().size(), 3u);
  const auto &Stmts = P->functions()[2]->body()->stmts();
  EXPECT_TRUE(isa<ExprStmt>(Stmts[0].get()));
}

TEST(Parser, SyntaxErrors) {
  parseFails("int f( { }");
  parseFails("int f() { return 1 }");   // missing semicolon
  parseFails("int f() { x = ; }");      // missing rhs
  parseFails("int f() { if x) return 1; }");
  parseFails("int 3x;");
  parseFails("garbage");
}

TEST(Parser, RoundTripThroughPrinter) {
  const char *Src = "int g;\n"
                    "int f(int x, bool b) {\n"
                    "  int y = x + 1;\n"
                    "  if (b) y = y * 2; else y = 0;\n"
                    "  while (y > 0) y = y - 1;\n"
                    "  return y;\n"
                    "}\n";
  auto P1 = parseOk(Src);
  std::string Printed = printProgram(*P1);
  auto P2 = parseOk(Printed);
  // The printer's output must itself parse and re-print identically.
  EXPECT_EQ(printProgram(*P2), Printed);
}

TEST(Parser, CloneMatchesOriginal) {
  const char *Src = "int a[5];\n"
                    "int f(int x) {\n"
                    "  a[x] = x * 3;\n"
                    "  assert(a[x] >= 0);\n"
                    "  return x < 2 ? a[0] : a[1];\n"
                    "}\n";
  auto P = parseOk(Src);
  auto Q = cloneProgram(*P);
  EXPECT_EQ(printProgram(*P), printProgram(*Q));
}

namespace {

std::string repeat(const std::string &S, unsigned N) {
  std::string Out;
  for (unsigned I = 0; I < N; ++I)
    Out += S;
  return Out;
}

/// One program per nesting form, \p N levels deep.
std::vector<std::string> nestedPrograms(unsigned N) {
  return {
      "int main(int x) { return " + repeat("(", N) + "x" + repeat(")", N) +
          "; }",
      "int main(int x) { int r = 0; " + repeat("if (x > 0) ", N) +
          "r = 1; return r; }",
      "int main(int x) { int r = 0; " + repeat("{", N) + "r = 1;" +
          repeat("}", N) + " return r; }",
      "int main(int x) { return " + repeat("-", N) + "x; }",
      "int main(int x) { return x" + repeat(" + 1", N) + "; }",
      "int main(int x) { return " + repeat("x > 0 ? 1 : ", N) + "0; }",
      "int a[4]; int main(int x) { return a" + repeat("[0]", N) + "; }",
  };
}

} // namespace

TEST(Parser, NestingBelowTheCapParses) {
  for (const std::string &Src : nestedPrograms(MaxNestingDepth - 8))
    parseOk(Src);
}

TEST(Parser, NestingPastTheCapIsALocatedError) {
  // 20k levels used to overflow the stack (SIGSEGV); past the cap every
  // form is one located diagnostic, and nothing recurses that deep.
  for (unsigned N : {MaxNestingDepth, 20000u})
    for (const std::string &Src : nestedPrograms(N)) {
      DiagEngine Diags;
      EXPECT_EQ(parseProgram(Src, Diags), nullptr);
      ASSERT_EQ(Diags.errorCount(), 1u) << Diags.render();
      const Diag &D = Diags.diags().front();
      EXPECT_NE(D.Message.find("nesting too deep"), std::string::npos)
          << D.Message;
      EXPECT_EQ(D.Loc.Line, 1u);
      EXPECT_GT(D.Loc.Col, 1u);
    }
}
