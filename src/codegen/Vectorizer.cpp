//===- codegen/Vectorizer.cpp ---------------------------------------------===//

#include "codegen/Vectorizer.h"

#include "support/FailPoint.h"

#include "codegen/Mapping.h"
#include "poly/Dependence.h"

using namespace pinj;

namespace {

/// True if dimension \p Dim is statement \p Stmt's innermost loop: the
/// row at Dim is unit and every later row is zero for this statement.
bool isInnermostLoopOf(const Kernel &K, const Schedule &S, unsigned Stmt,
                       unsigned Dim) {
  if (analyzeRow(K, S, Stmt, Dim).Kind != RowShape::Unit)
    return false;
  for (unsigned Later = Dim + 1, E = S.numDims(); Later != E; ++Later)
    if (analyzeRow(K, S, Stmt, Later).Kind != RowShape::Zero)
      return false;
  return true;
}

/// True if \p Dim carries no uncarried dependence between statements of
/// \p InLoop: the lanes (and the VL consecutive iterations each lane
/// covers) are independent, so loads and stores may be issued as vector
/// operations across concurrently mapped lane groups.
bool isVectorSafe(const Kernel &K, const Schedule &S,
                  const std::vector<DependenceRelation> &Deps,
                  const std::vector<unsigned> &InLoop, unsigned Dim) {
  auto InSet = [&InLoop](unsigned Stmt) {
    for (unsigned S : InLoop)
      if (S == Stmt)
        return true;
    return false;
  };
  for (const DependenceRelation &D : Deps) {
    if (!D.constrainsValidity() || !InSet(D.SrcStmt) || !InSet(D.DstStmt))
      continue;
    bool CarriedEarlier = false;
    for (unsigned Earlier = 0; Earlier != Dim && !CarriedEarlier; ++Earlier)
      CarriedEarlier = S.stronglySatisfiedAt(K, D, Earlier);
    if (CarriedEarlier)
      continue;
    if (!D.Rel.isAlwaysZero(S.differenceExpr(K, D, Dim)))
      return false;
  }
  return true;
}

/// The widest width in {Preferred, 2} at which every statement in
/// \p InLoop can step \p Dim by whole vectors; 0 when none works.
unsigned resolveWidth(const Kernel &K, const Schedule &S,
                      const std::vector<DependenceRelation> &Deps,
                      const std::vector<unsigned> &InLoop, unsigned Dim,
                      unsigned Preferred) {
  if (!isVectorSafe(K, S, Deps, InLoop, Dim))
    return 0;
  for (unsigned Width : {Preferred, 2u}) {
    if (Width < 2)
      break;
    bool Ok = true;
    for (unsigned Stmt : InLoop) {
      RowShape Shape = analyzeRow(K, S, Stmt, Dim);
      if (K.Stmts[Stmt].Extents[Shape.Iter] % Width != 0 ||
          Shape.Shift % Width != 0) {
        Ok = false;
        break;
      }
    }
    if (Ok)
      return Width;
  }
  return 0;
}

} // namespace

unsigned pinj::finalizeVectorMarks(const Kernel &K, Schedule &S,
                                   bool DisableVectorization,
                                   const DependenceMemo *Memo) {
  failpoint::hit("codegen.vectorize");
  unsigned Surviving = 0;
  std::vector<DependenceRelation> OwnDeps;
  const std::vector<DependenceRelation> &Deps =
      dependencesOf(K, DependenceOptions(), Memo, OwnDeps);
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    DimInfo &Info = S.Dims[D];
    if (Info.VectorStmts.empty() && Info.VectorWidth == 0)
      continue;
    Info.VectorStmts.clear();
    if (DisableVectorization) {
      Info.VectorWidth = 0;
      continue;
    }
    // Every statement looping at this dimension sits inside the vector
    // loop and must step by whole vectors; the dimension must also be
    // each one's innermost loop.
    std::vector<unsigned> InLoop;
    bool AllInnermost = true;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      RowShape Shape = analyzeRow(K, S, Stmt, D);
      if (Shape.Kind != RowShape::Unit)
        continue;
      InLoop.push_back(Stmt);
      AllInnermost &= isInnermostLoopOf(K, S, Stmt, D);
    }
    unsigned Width = 0;
    if (!InLoop.empty() && AllInnermost)
      Width = resolveWidth(K, S, Deps, InLoop, D,
                           Info.VectorWidth ? Info.VectorWidth : 4);
    if (Width == 0) {
      Info.VectorWidth = 0;
      continue;
    }
    Info.VectorWidth = Width;
    Info.VectorStmts = InLoop;
    ++Surviving;
  }
  return Surviving;
}
