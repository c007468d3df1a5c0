//===- poly/Dependence.cpp ------------------------------------------------===//

#include "poly/Dependence.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Status.h"

using namespace pinj;

const char *pinj::depKindName(DepKind Kind) {
  switch (Kind) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Input:
    return "input";
  }
  fatalError("unknown dependence kind");
}

namespace {

/// Builds relations for one (source access, target access) pair.
class PairAnalyzer {
public:
  PairAnalyzer(const Kernel &K, unsigned Src, unsigned Dst)
      : K(K), Src(K.Stmts[Src]), Dst(K.Stmts[Dst]), SrcId(Src), DstId(Dst) {
    Space.NumDims = this->Src.numIters() + this->Dst.numIters();
    Space.NumParams = K.numParams();
  }

  /// Emits one relation per lexicographic level at which the source can
  /// execute strictly before the target.
  void analyze(const Access &SrcAcc, const Access &DstAcc, DepKind Kind,
               std::vector<DependenceRelation> &Out) {
    AffineSet Base(Space);
    addDomains(Base);
    addAccessEqualities(Base, SrcAcc, DstAcc);

    // Walk the interleaved 2d+1 original schedules position by position,
    // accumulating "equal so far" constraints in Prefix.
    AffineSet Prefix = Base;
    unsigned SrcLen = 2 * Src.numIters() + 1;
    unsigned DstLen = 2 * Dst.numIters() + 1;
    unsigned MinLen = std::min(SrcLen, DstLen);
    for (unsigned Pos = 0; Pos != MinLen; ++Pos) {
      if (Pos % 2 == 0) {
        // Beta position: constants decide.
        Int BetaSrc = Src.OrigBeta[Pos / 2];
        Int BetaDst = Dst.OrigBeta[Pos / 2];
        if (BetaSrc < BetaDst) {
          // Strictly ordered here for all iterations; emit and stop
          // (deeper equality is impossible).
          emit(Prefix, SrcAcc, Kind, Out);
          return;
        }
        if (BetaSrc > BetaDst)
          return; // Source can never precede target at this prefix.
        continue; // Equal betas: no constraint, same prefix.
      }
      // Iterator position: candidate strict level, then extend prefix
      // with the equality.
      unsigned SrcIter = (Pos - 1) / 2;
      unsigned DstIter = (Pos - 1) / 2;
      AffineSet Strict = Prefix;
      Strict.addGe(orderRow(SrcIter, DstIter, /*Strict=*/true));
      emit(Strict, SrcAcc, Kind, Out);
      Prefix.addEq(orderRow(SrcIter, DstIter, /*Strict=*/false));
    }
    // Identical on the whole common prefix: for distinct statements with
    // equal-length schedules this cannot happen (beta prefixes differ);
    // for the same statement it is the same iteration, not a dependence.
  }

private:
  /// Row over (src iters, dst iters, params, 1); Strict gives
  /// dst - src - 1 >= 0, otherwise dst - src (== 0 use).
  IntVector orderRow(unsigned SrcIter, unsigned DstIter, bool Strict) const {
    IntVector Row(Space.width(), 0);
    Row[SrcIter] = -1;
    Row[Src.numIters() + DstIter] = 1;
    if (Strict)
      Row.back() = -1;
    return Row;
  }

  void addDomains(AffineSet &Set) const {
    for (unsigned I = 0, E = Src.numIters(); I != E; ++I)
      Set.addDimBounds(I, 0, Src.Extents[I]);
    for (unsigned I = 0, E = Dst.numIters(); I != E; ++I)
      Set.addDimBounds(Src.numIters() + I, 0, Dst.Extents[I]);
  }

  /// Lifts an access row of \p S into the combined space at \p DimOffset.
  IntVector liftRow(const Statement &S, const IntVector &Row,
                    unsigned DimOffset) const {
    IntVector Lifted(Space.width(), 0);
    for (unsigned I = 0, E = S.numIters(); I != E; ++I)
      Lifted[DimOffset + I] = Row[I];
    for (unsigned P = 0, E = K.numParams(); P != E; ++P)
      Lifted[Space.NumDims + P] = Row[S.numIters() + P];
    Lifted.back() = Row.back();
    return Lifted;
  }

  void addAccessEqualities(AffineSet &Set, const Access &SrcAcc,
                           const Access &DstAcc) const {
    assert(SrcAcc.TensorId == DstAcc.TensorId && "access tensor mismatch");
    for (unsigned D = 0, E = SrcAcc.Indices.size(); D != E; ++D) {
      IntVector SrcRow = liftRow(Src, SrcAcc.Indices[D], 0);
      IntVector DstRow = liftRow(Dst, DstAcc.Indices[D], Src.numIters());
      IntVector Eq(Space.width(), 0);
      for (unsigned C = 0, W = Space.width(); C != W; ++C)
        Eq[C] = checkedSub(SrcRow[C], DstRow[C]);
      Set.addEq(std::move(Eq));
    }
  }

  void emit(const AffineSet &Rel, const Access &SrcAcc, DepKind Kind,
            std::vector<DependenceRelation> &Out) const {
    if (Rel.isEmpty())
      return;
    DependenceRelation D;
    D.SrcStmt = SrcId;
    D.DstStmt = DstId;
    D.Kind = Kind;
    D.TensorId = SrcAcc.TensorId;
    D.Rel = Rel;
    Out.push_back(std::move(D));
  }

  const Kernel &K;
  const Statement &Src;
  const Statement &Dst;
  unsigned SrcId;
  unsigned DstId;
  SetSpace Space;
};

DepKind classify(bool SrcWrites, bool DstWrites) {
  if (SrcWrites && DstWrites)
    return DepKind::Output;
  if (SrcWrites)
    return DepKind::Flow;
  if (DstWrites)
    return DepKind::Anti;
  return DepKind::Input;
}

} // namespace

std::vector<DependenceRelation>
pinj::computeDependences(const Kernel &K, const DependenceOptions &Options) {
  obs::Span S("poly.dependences");
  unsigned Pairs = 0;
  std::vector<DependenceRelation> Result;
  for (unsigned Src = 0, NS = K.Stmts.size(); Src != NS; ++Src) {
    for (unsigned Dst = 0; Dst != NS; ++Dst) {
      PairAnalyzer Analyzer(K, Src, Dst);
      for (const Access *SrcAcc : K.Stmts[Src].allAccesses()) {
        for (const Access *DstAcc : K.Stmts[Dst].allAccesses()) {
          if (SrcAcc->TensorId != DstAcc->TensorId)
            continue;
          DepKind Kind = classify(SrcAcc->IsWrite, DstAcc->IsWrite);
          if (Kind == DepKind::Input && !Options.IncludeInput)
            continue;
          ++Pairs;
          Analyzer.analyze(*SrcAcc, *DstAcc, Kind, Result);
        }
      }
    }
  }
  static obs::Counter &Runs = obs::metrics().counter("poly.dependence_runs");
  static obs::Counter &Deps =
      obs::metrics().counter("poly.dependences_computed");
  static obs::Counter &PairCount =
      obs::metrics().counter("poly.access_pairs_analyzed");
  Runs.inc();
  Deps.add(Result.size());
  PairCount.add(Pairs);
  if (S.active())
    S.arg("kernel", K.Name)
        .arg("pairs", Pairs)
        .arg("relations", Result.size());
  return Result;
}

const std::vector<DependenceRelation> *
DependenceMemo::get(const DependenceOptions &Options,
                    std::vector<DependenceRelation> *Own) const {
  static_assert(sizeof(DependenceOptions) == sizeof(bool),
                "DependenceMemo keys on IncludeInput alone");
  Entry &E = Entries[Options.IncludeInput ? 1 : 0];
  std::lock_guard<std::mutex> Lock(E.Mu);
  if (E.Stored)
    return budget::chargeWork(E.Work) ? &E.Relations : nullptr;
  budget::WorkMeter Meter;
  std::vector<DependenceRelation> Relations = computeDependences(K, Options);
  if (budget::anyTripped()) {
    if (Own)
      *Own = std::move(Relations);
    return Own;
  }
  E.Relations = std::move(Relations);
  E.Work = Meter.work();
  E.Stored = true;
  return &E.Relations;
}

const std::vector<DependenceRelation> &
pinj::dependencesOf(const Kernel &K, const DependenceOptions &Options,
                    const DependenceMemo *Memo,
                    std::vector<DependenceRelation> &Storage) {
  if (Memo)
    if (const std::vector<DependenceRelation> *Deps =
            Memo->get(Options, &Storage))
      return *Deps;
  Storage = computeDependences(K, Options);
  return Storage;
}

std::string pinj::printDependence(const Kernel &K,
                                  const DependenceRelation &D) {
  return K.Stmts[D.SrcStmt].Name + " -> " + K.Stmts[D.DstStmt].Name + " " +
         depKindName(D.Kind) + " on " + K.Tensors[D.TensorId].Name;
}
