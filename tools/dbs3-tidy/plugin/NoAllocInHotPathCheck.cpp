#include "NoAllocInHotPathCheck.h"

#include <algorithm>
#include <string>

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/Lex/Lexer.h"

using namespace clang;
using namespace clang::ast_matchers;

namespace dbs3_tidy {

namespace {

AST_MATCHER(FunctionDecl, isHotPathFunction) {
  static const char* kNames[] = {"OnDataBatch", "Probe",       "ProbeKeys",
                                 "ProbeHashed", "EvalPredAll", "EvalRow",
                                 "HashColumn",  "EmitTagged"};
  const auto Name = Node.getNameAsString();
  for (const char* N : kNames) {
    if (Name == N) return true;
  }
  return false;
}

/// Lowercased source text of the member-call receiver; "arena"/"pool"
/// substrings mark the blessed allocators.
bool ReceiverIsBlessed(const CXXMemberCallExpr& Call, ASTContext& Ctx) {
  const Expr* Object = Call.getImplicitObjectArgument();
  if (Object == nullptr) return false;
  const StringRef Text = Lexer::getSourceText(
      CharSourceRange::getTokenRange(Object->getSourceRange()),
      Ctx.getSourceManager(), Ctx.getLangOpts());
  std::string Lower = Text.lower();
  return Lower.find("arena") != std::string::npos ||
         Lower.find("pool") != std::string::npos;
}

}  // namespace

void NoAllocInHotPathCheck::registerMatchers(MatchFinder* Finder) {
  const auto InHotPath =
      hasAncestor(functionDecl(isHotPathFunction()).bind("func"));
  Finder->addMatcher(cxxNewExpr(InHotPath).bind("new"), this);
  Finder->addMatcher(
      callExpr(callee(functionDecl(
                   hasAnyName("malloc", "calloc", "realloc", "strdup"))),
               InHotPath)
          .bind("malloc"),
      this);
  Finder->addMatcher(
      cxxMemberCallExpr(
          callee(cxxMethodDecl(hasAnyName(
              "push_back", "emplace_back", "resize", "reserve", "insert",
              "emplace", "append", "assign"))),
          InHotPath)
          .bind("grow"),
      this);
}

void NoAllocInHotPathCheck::check(const MatchFinder::MatchResult& Result) {
  const auto* Func = Result.Nodes.getNodeAs<FunctionDecl>("func");
  const StringRef FuncName = Func != nullptr ? Func->getName() : "?";

  if (const auto* New = Result.Nodes.getNodeAs<CXXNewExpr>("new")) {
    if (New->getNumPlacementArgs() > 0) return;  // Arena placement-new.
    diag(New->getBeginLoc(),
         "hot-path function %0 allocates with operator new; kernel "
         "surfaces must stay allocation-free (use the execution Arena or "
         "ChunkPool)")
        << FuncName;
    return;
  }
  if (const auto* Malloc = Result.Nodes.getNodeAs<CallExpr>("malloc")) {
    diag(Malloc->getBeginLoc(),
         "hot-path function %0 calls a malloc-family allocator; kernel "
         "surfaces must stay allocation-free")
        << FuncName;
    return;
  }
  if (const auto* Grow = Result.Nodes.getNodeAs<CXXMemberCallExpr>("grow")) {
    if (ReceiverIsBlessed(*Grow, *Result.Context)) return;
    diag(Grow->getBeginLoc(),
         "hot-path function %0 grows a container with %1; only "
         "ChunkPool/Arena-backed storage may grow on the kernel surface")
        << FuncName << Grow->getMethodDecl()->getName();
  }
}

}  // namespace dbs3_tidy
