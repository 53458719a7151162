#ifndef DBS3_TOOLS_TIDY_PLUGIN_NOALLOCINHOTPATHCHECK_H_
#define DBS3_TOOLS_TIDY_PLUGIN_NOALLOCINHOTPATHCHECK_H_

#include "clang-tidy/ClangTidyCheck.h"

namespace dbs3_tidy {

/// dbs3-no-alloc-in-hot-path: functions on the per-tuple kernel surface
/// (OnDataBatch, Probe/ProbeKeys/ProbeHashed, EvalPredAll, EvalRow,
/// HashColumn, EmitTagged — the shared scan's tagged-emit path) must not
/// reach operator new, malloc-family calls, or growing
/// container methods — except through ChunkPool / Arena receivers, the
/// engine's recycled storage. Placement new is the arena path and allowed.
class NoAllocInHotPathCheck : public clang::tidy::ClangTidyCheck {
 public:
  NoAllocInHotPathCheck(llvm::StringRef Name,
                        clang::tidy::ClangTidyContext* Context)
      : ClangTidyCheck(Name, Context) {}
  void registerMatchers(clang::ast_matchers::MatchFinder* Finder) override;
  void check(
      const clang::ast_matchers::MatchFinder::MatchResult& Result) override;
};

}  // namespace dbs3_tidy

#endif  // DBS3_TOOLS_TIDY_PLUGIN_NOALLOCINHOTPATHCHECK_H_
