//===- sched/Scheduler.cpp ------------------------------------------------===//

#include "sched/Scheduler.h"

#include "math/LinearAlgebra.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>

using namespace pinj;

namespace {

/// Folds one run's counters into the process-wide metrics registry (the
/// generalization of the ad-hoc SchedulerStats struct) and journals the
/// run's sched_end record. \p FarkasHits is the per-construction replay
/// count (the global counter mixes concurrent workers); \p Dims the
/// number of dimensions installed when the run ended.
void recordSchedulerStats(const SchedulerStats &S, unsigned FarkasHits,
                          std::size_t Dims) {
  obs::MetricsRegistry &M = obs::metrics();
  M.counter("sched.runs").inc();
  M.counter("sched.ilp_solves").add(S.IlpSolves);
  M.counter("sched.ilp_failures").add(S.IlpFailures);
  M.counter("sched.ilp_nodes").add(S.IlpNodes);
  M.counter("sched.progression_drops").add(S.ProgressionDrops);
  M.counter("sched.sibling_moves").add(S.SiblingMoves);
  M.counter("sched.band_breaks").add(S.BandBreaks);
  M.counter("sched.ancestor_backtracks").add(S.AncestorBacktracks);
  M.counter("sched.scc_cuts").add(S.SccCuts);
  M.counter("sched.meta_rejections").add(S.MetaRejections);
  M.counter("sched.feautrier_dims").add(S.FeautrierDims);
  if (S.TreeAbandoned)
    M.counter("sched.trees_abandoned").inc();
  if (obs::Journal::fastEnabled())
    obs::JournalEvent("sched_end")
        .field("dims", Dims)
        .field("ilp_solves", S.IlpSolves)
        .field("ilp_failures", S.IlpFailures)
        .field("ilp_nodes", S.IlpNodes)
        .field("farkas_cache_hits", FarkasHits)
        .field("fallbacks", S.ProgressionDrops + S.SiblingMoves +
                                S.BandBreaks + S.AncestorBacktracks +
                                S.SccCuts + S.FeautrierDims)
        .field("tree_abandoned", S.TreeAbandoned);
}

/// Tarjan's strongly connected components over the statement graph whose
/// edges are the active dependence relations. SCC ids are assigned in
/// reverse topological order of the condensation, so ordering SCCs by
/// descending id executes sources before targets; we re-normalize to a
/// forward topological index below.
class SccFinder {
public:
  SccFinder(unsigned NumNodes,
            const std::vector<std::pair<unsigned, unsigned>> &Edges)
      : Adjacency(NumNodes), State(NumNodes) {
    for (auto &[Src, Dst] : Edges)
      if (Src != Dst)
        Adjacency[Src].push_back(Dst);
    for (unsigned N = 0; N != NumNodes; ++N)
      if (State[N].Index < 0)
        visit(N);
  }

  unsigned numSccs() const { return SccCount; }

  /// Topological position of the SCC containing \p Node: sources first.
  unsigned topoIndex(unsigned Node) const {
    // Tarjan emits SCCs in reverse topological order.
    return SccCount - 1 - State[Node].Scc;
  }

private:
  struct NodeState {
    int Index = -1;
    int LowLink = 0;
    bool OnStack = false;
    int Scc = -1;
  };

  void visit(unsigned Node) {
    State[Node].Index = State[Node].LowLink = NextIndex++;
    Stack.push_back(Node);
    State[Node].OnStack = true;
    for (unsigned Next : Adjacency[Node]) {
      if (State[Next].Index < 0) {
        visit(Next);
        State[Node].LowLink =
            std::min(State[Node].LowLink, State[Next].LowLink);
      } else if (State[Next].OnStack) {
        State[Node].LowLink =
            std::min(State[Node].LowLink, State[Next].Index);
      }
    }
    if (State[Node].LowLink != State[Node].Index)
      return;
    for (;;) {
      unsigned Top = Stack.back();
      Stack.pop_back();
      State[Top].OnStack = false;
      State[Top].Scc = SccCount;
      if (Top == Node)
        break;
    }
    ++SccCount;
  }

  std::vector<std::vector<unsigned>> Adjacency;
  std::vector<NodeState> State;
  std::vector<unsigned> Stack;
  int NextIndex = 0;
  int SccCount = 0;
};

DependenceOptions dependenceOptionsFor(const SchedulerOptions &Options) {
  DependenceOptions DepOptions;
  DepOptions.IncludeInput = Options.ProximityIncludesInput;
  return DepOptions;
}

/// One full scheduling construction (Algorithm 1). A fresh instance is
/// used for the no-influence rerun when a tree is abandoned.
class Construction {
public:
  Construction(const Kernel &K, const SchedulerOptions &Options,
               const InfluenceTree *Tree, const DependenceMemo *Deps)
      : K(K), Options(Options), Tree(Tree),
        AllDeps(dependencesOf(K, dependenceOptionsFor(Options), Deps,
                              OwnDeps)) {
    for (unsigned I = 0, E = AllDeps.size(); I != E; ++I)
      if (AllDeps[I].constrainsValidity())
        Active.push_back(I);
    Carried.assign(AllDeps.size(), std::nullopt);
    Partial.Transforms.assign(K.Stmts.size(), IntMatrix());
    for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S)
      Partial.Transforms[S] = IntMatrix(0, K.rowWidth(K.Stmts[S]));
  }

  /// Runs the construction; \returns false if the influence tree had to
  /// be abandoned (the caller reruns without a tree).
  bool run(SchedulerResult &Result) {
    Node = Tree && !Tree->empty()
               ? const_cast<InfluenceTree *>(Tree)->firstScenario()
               : nullptr;
    if (Options.SerializeSccs)
      serializeSccsUpfront();

    // POLYINJECT_TRACE=1 (or any trace sink) shows one span per
    // dimension attempt with the construction state as attributes.
    bool ProgressionDisabled = false;
    while (!done()) {
      obs::Span DimSpan("sched.dim");
      if (DimSpan.active())
        DimSpan.arg("depth", Partial.Dims.size())
            .arg("node", Node ? Node->Label.c_str() : "-")
            .arg("active", Active.size())
            .arg("fullrank", allFullRank())
            .arg("progression", !ProgressionDisabled);
      if (Partial.Dims.size() >= MaxScheduleDims) {
        // With an influence tree the limit is usually the tree asking
        // for unreasonable depth: abandon it and let the plain rerun
        // try. Without a tree there is nothing left to shed.
        if (Node || Tree) {
          fallbackSpan("tree_abandon");
          Stats.TreeAbandoned = true;
          recordSchedulerStats(Stats, Farkas.hits(), Partial.Dims.size());
          return false;
        }
        raiseError(StatusCode::DimensionLimit, "sched.construction",
                   "scheduling exceeded the dimension limit");
      }
      unsigned D = Partial.Dims.size();
      if (Backups.size() <= D)
        Backups.resize(D + 1);
      if (!Backups[D].Recorded) {
        Backups[D].Active = Active;
        Backups[D].Recorded = true;
      }

      IlpResult Solution = attempt(ProgressionDisabled);
      if (Solution.isOptimal() && accept(Solution)) {
        ProgressionDisabled = false;
        continue;
      }

      // Fallback 1: influence requests a supplementary dimension.
      if (Active.empty() && Node && !ProgressionDisabled) {
        fallbackSpan("progression_drop");
        ProgressionDisabled = true;
        ++Stats.ProgressionDrops;
        continue;
      }
      // Fallback 2: next sibling scenario at the same depth.
      if (Node && Node->rightSibling()) {
        fallbackSpan("sibling_move");
        obs::metrics().counter("influence.scenario_backtracks").inc();
        Node = Node->rightSibling();
        Active = Backups[D].Active;
        ProgressionDisabled = false;
        ++Stats.SiblingMoves;
        continue;
      }
      // Fallback 3: end the permutable band by dropping carried deps.
      if (dropCarriedDeps()) {
        fallbackSpan("band_break");
        ProgressionDisabled = false;
        NextStartsBand = true;
        ++Stats.BandBreaks;
        continue;
      }
      // Feautrier-style dimension: strongly satisfy as many active
      // relations as possible (optional; the isl mechanism the paper
      // mentions in Section IV-B).
      if (Options.UseFeautrierFallback && !Active.empty() &&
          attemptFeautrier()) {
        fallbackSpan("feautrier_dim");
        ProgressionDisabled = false;
        ++Stats.FeautrierDims;
        continue;
      }
      // Fallback 4: backtrack to the closest ancestor sibling.
      if (Node && backtrackToAncestorSibling()) {
        fallbackSpan("ancestor_backtrack");
        obs::metrics().counter("influence.scenario_backtracks").inc();
        ProgressionDisabled = false;
        ++Stats.AncestorBacktracks;
        continue;
      }
      // Fallback 5: separate strongly connected components.
      if (separateSccs()) {
        fallbackSpan("scc_cut");
        ProgressionDisabled = false;
        ++Stats.SccCuts;
        continue;
      }
      // Self-dependences on full-rank statements are totally ordered by
      // the (injective, per-dimension nonnegative) schedule even when
      // the conservative carried test cannot prove it; drop them.
      if (dropResolvedSelfDeps())
        continue;
      // Ultimately: abandon the influence tree entirely.
      if (Node || Tree) {
        fallbackSpan("tree_abandon");
        Stats.TreeAbandoned = true;
        recordSchedulerStats(Stats, Farkas.hits(), Partial.Dims.size());
        return false;
      }
      raiseError(StatusCode::Stuck, "sched.construction",
                 "no fallback can make progress");
    }
    Result.Sched = Partial;
    Result.Stats = Stats;
    Result.ReachedLeaf = ReachedLeaf;
    recordSchedulerStats(Stats, Farkas.hits(), Partial.Dims.size());
    return true;
  }

private:
  /// Emits one zero-length marker span per fallback activation so
  /// traces show where (and at what depth) the construction backed off,
  /// plus the matching journal record (same payload, joinable by
  /// request id). Scenario-switching fallbacks also bump the
  /// influence.scenario_backtracks counter: they abandon one influence
  /// scenario for another, which is the tree's backtrack notion.
  void fallbackSpan(const char *Kind) const {
    if (obs::Tracer::fastEnabled()) {
      obs::Span F("sched.fallback");
      F.arg("kind", Kind).arg("depth", Partial.Dims.size());
    }
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("sched_fallback")
          .field("kind", Kind)
          .field("depth", Partial.Dims.size())
          .field("node", Node ? Node->Label.c_str() : "-");
  }
  bool allFullRank() const {
    for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S) {
      IntMatrix H = Partial.iteratorPart(K, S);
      IntMatrix NonZero(0, K.Stmts[S].numIters());
      for (unsigned R = 0, NR = H.numRows(); R != NR; ++R)
        if (!isZeroVector(H.row(R)))
          NonZero.appendRow(H.row(R));
      if (matrixRank(NonZero) < K.Stmts[S].numIters())
        return false;
    }
    return true;
  }

  bool done() const {
    if (Node)
      return false; // The tree still wants dimensions.
    return Active.empty() && allFullRank();
  }

  IlpResult attempt(bool ProgressionDisabled) {
    // With every statement at full rank, progression is unsatisfiable by
    // definition (no linearly independent dimension remains); report the
    // failure without solving so the fallback chain runs, exactly as a
    // progression-constrained ILP would fail.
    if (!ProgressionDisabled && allFullRank()) {
      ++Stats.IlpSolves;
      ++Stats.IlpFailures;
      return IlpResult();
    }
    DimIlp Ilp = makeDimIlp(K, Options);
    if (!ProgressionDisabled)
      for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S)
        addProgression(Ilp, K, Partial, S);
    for (unsigned Dep : Active)
      Farkas.addValidity(Ilp, K, Dep, AllDeps[Dep]);
    // Proximity: active flow relations plus all input relations.
    for (unsigned Dep : Active)
      if (AllDeps[Dep].Kind == DepKind::Flow)
        Farkas.addProximity(Ilp, K, Dep, AllDeps[Dep]);
    for (unsigned I = 0, E = AllDeps.size(); I != E; ++I)
      if (AllDeps[I].Kind == DepKind::Input)
        Farkas.addProximity(Ilp, K, I, AllDeps[I]);
    if (Node)
      addInfluence(Ilp, K, *Node, Partial, Partial.Dims.size());
    addObjectives(Ilp, K, Node, Partial.Dims.size());
    ++Stats.IlpSolves;
    obs::Span IlpSpan("sched.ilp");
    IlpResult R = Ilp.Builder.solve();
    if (IlpSpan.active())
      IlpSpan.arg("optimal", R.isOptimal()).arg("nodes", R.NodesExplored);
    Stats.IlpNodes += R.NodesExplored;
    if (!R.isOptimal())
      ++Stats.IlpFailures;
    else
      LastIlp = std::move(Ilp);
    return R;
  }

  /// Installs a solved dimension; \returns false (withdrawing the
  /// rows) when the node's meta-requirements reject it.
  bool accept(const IlpResult &Solution) {
    unsigned D = Partial.Dims.size();
    appendSolution(LastIlp, Solution, K, Partial);
    DimInfo Info;
    Info.BandStart = NextStartsBand;
    std::tie(Info.IsParallel, Info.ThreadParallel) = dimParallelism(D);
    if (Node && Node->RequireParallel && !Info.IsParallel) {
      // Meta-constraint failure: treat exactly like an infeasible ILP.
      for (IntMatrix &T : Partial.Transforms)
        T.truncateRows(D);
      ++Stats.MetaRejections;
      if (obs::Journal::fastEnabled())
        obs::JournalEvent("dim_outcome")
            .field("depth", D)
            .field("accepted", false)
            .field("reason", "meta_rejection")
            .field("node", Node->Label);
      return false;
    }
    if (Node) {
      Info.Influenced = !Node->Constraints.empty();
      Info.VectorStmts = Node->VectorStmts;
      Info.VectorWidth = Node->VectorWidth;
    }
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("dim_outcome")
          .field("depth", D)
          .field("accepted", true)
          .field("influenced", Info.Influenced)
          .field("parallel", Info.IsParallel)
          .field("band_start", Info.BandStart)
          .field("node", Node ? Node->Label.c_str() : "-");
    Partial.Dims.push_back(std::move(Info));
    NextStartsBand = false;
    updateCarried(D);
    if (Node) {
      if (Node->isLeaf()) {
        ReachedLeaf = Node;
        Node = nullptr; // Tree contribution terminated.
      } else {
        Node = Node->Children.front().get();
      }
    }
    return true;
  }

  /// Builds a Feautrier-style dimension: maximize the number of active
  /// relations strongly satisfied, then the usual tie-breakers; accept
  /// only if at least one relation is carried (guaranteeing progress).
  bool attemptFeautrier() {
    DimIlp Ilp = makeDimIlp(K, Options);
    std::vector<const DependenceRelation *> Deps;
    for (unsigned Dep : Active)
      Deps.push_back(&AllDeps[Dep]);
    addFeautrierSatisfaction(Ilp, K, Deps);
    addObjectives(Ilp, K);
    ++Stats.IlpSolves;
    IlpResult R = Ilp.Builder.solve();
    Stats.IlpNodes += R.NodesExplored;
    if (!R.isOptimal()) {
      ++Stats.IlpFailures;
      return false;
    }
    // The first objective level minimized the number of unsatisfied
    // relations; demand strict progress.
    if (R.Value >= Rational(static_cast<Int>(Deps.size())))
      return false;
    LastIlp = std::move(Ilp);
    unsigned D = Partial.Dims.size();
    appendSolution(LastIlp, R, K, Partial);
    DimInfo Info;
    std::tie(Info.IsParallel, Info.ThreadParallel) = dimParallelism(D);
    Partial.Dims.push_back(std::move(Info));
    updateCarried(D);
    dropCarriedDeps();
    return true;
  }

  /// \returns {fully parallel, parallel up to intra-block sync}.
  std::pair<bool, bool> dimParallelism(unsigned D) const {
    bool Parallel = true, ThreadParallel = true;
    for (unsigned I = 0, E = AllDeps.size(); I != E; ++I) {
      const DependenceRelation &Dep = AllDeps[I];
      if (!Dep.constrainsValidity() || Carried[I])
        continue;
      if (Dep.Rel.isAlwaysZero(Partial.differenceExpr(K, Dep, D)))
        continue;
      Parallel = false;
      // Inter-statement differences are resolvable with guards plus
      // __syncthreads inside a block; loop-carried self-dependences
      // are not.
      if (Dep.SrcStmt == Dep.DstStmt)
        ThreadParallel = false;
    }
    return {Parallel, ThreadParallel};
  }

  void updateCarried(unsigned D) {
    for (unsigned I = 0, E = AllDeps.size(); I != E; ++I) {
      if (Carried[I] || !AllDeps[I].constrainsValidity())
        continue;
      if (Partial.stronglySatisfiedAt(K, AllDeps[I], D))
        Carried[I] = D;
    }
  }

  /// Recomputes Carried from scratch (after withdrawing dimensions).
  void recomputeCarried() {
    Carried.assign(AllDeps.size(), std::nullopt);
    for (unsigned D = 0, ND = Partial.Dims.size(); D != ND; ++D)
      updateCarried(D);
  }

  bool dropCarriedDeps() {
    unsigned Before = Active.size();
    Active.erase(std::remove_if(Active.begin(), Active.end(),
                                [this](unsigned Dep) {
                                  return Carried[Dep].has_value();
                                }),
                 Active.end());
    return Active.size() != Before;
  }

  bool dropResolvedSelfDeps() {
    if (!allFullRank())
      return false;
    unsigned Before = Active.size();
    Active.erase(std::remove_if(Active.begin(), Active.end(),
                                [this](unsigned Dep) {
                                  return AllDeps[Dep].SrcStmt ==
                                         AllDeps[Dep].DstStmt;
                                }),
                 Active.end());
    return Active.size() != Before;
  }

  bool backtrackToAncestorSibling() {
    for (InfluenceNode *Ancestor = Node->Parent;
         Ancestor && Ancestor->Parent; Ancestor = Ancestor->Parent) {
      InfluenceNode *Sibling = Ancestor->rightSibling();
      if (!Sibling)
        continue;
      unsigned NewDepth = Sibling->Depth;
      if (NewDepth >= Partial.Dims.size())
        continue;
      // Withdraw dimensions >= NewDepth.
      for (IntMatrix &T : Partial.Transforms)
        T.truncateRows(NewDepth);
      Partial.Dims.resize(NewDepth);
      recomputeCarried();
      assert(Backups.size() > NewDepth && Backups[NewDepth].Recorded &&
             "missing backup for backtracked depth");
      Active = Backups[NewDepth].Active;
      for (unsigned B = NewDepth + 1; B < Backups.size(); ++B)
        Backups[B].Recorded = false;
      Node = Sibling;
      return true;
    }
    return false;
  }

  /// Appends one scalar dimension ordering \p TopoIndex per statement
  /// and retires the relations it carries.
  void appendScalarDim(const std::vector<unsigned> &TopoIndex) {
    unsigned D = Partial.Dims.size();
    for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S) {
      IntVector Row(K.rowWidth(K.Stmts[S]), 0);
      Row.back() = TopoIndex[S];
      Partial.Transforms[S].appendRow(Row);
    }
    DimInfo Info;
    Info.IsScalar = true;
    Partial.Dims.push_back(Info);
    NextStartsBand = true; // Whatever follows opens a new band.
    updateCarried(D);
    dropCarriedDeps();
  }

  bool separateSccs() {
    std::vector<std::pair<unsigned, unsigned>> Edges;
    for (unsigned Dep : Active)
      Edges.emplace_back(AllDeps[Dep].SrcStmt, AllDeps[Dep].DstStmt);
    SccFinder Sccs(K.Stmts.size(), Edges);
    if (Sccs.numSccs() < 2)
      return false;
    // The cut only helps if some live relation actually crosses
    // components; otherwise it would insert useless scalar dimensions
    // forever instead of letting the construction abandon the tree.
    bool Separates = false;
    for (unsigned Dep : Active)
      if (Sccs.topoIndex(AllDeps[Dep].SrcStmt) !=
          Sccs.topoIndex(AllDeps[Dep].DstStmt))
        Separates = true;
    if (!Separates)
      return false;
    std::vector<unsigned> Topo(K.Stmts.size());
    for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S)
      Topo[S] = Sccs.topoIndex(S);
    appendScalarDim(Topo);
    return true;
  }

  void serializeSccsUpfront() {
    // The reference scheduler fuses same-depth components (as isl's
    // clustering does for element-wise chains) but declines to fuse
    // components of different loop depth — the behaviour observed on
    // the paper's running example, Fig. 2(b), where the 2-deep X nest
    // and the 3-deep Y nest stay distributed. Consecutive SCCs in
    // topological order share a scalar value while their depth matches.
    std::vector<std::pair<unsigned, unsigned>> Edges;
    for (unsigned Dep : Active)
      Edges.emplace_back(AllDeps[Dep].SrcStmt, AllDeps[Dep].DstStmt);
    SccFinder Sccs(K.Stmts.size(), Edges);
    if (Sccs.numSccs() < 2)
      return;
    // Depth of each SCC (max member depth), in topological order.
    std::vector<unsigned> SccDepth(Sccs.numSccs(), 0);
    std::vector<unsigned> StmtScc(K.Stmts.size());
    for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S) {
      unsigned Scc = Sccs.topoIndex(S);
      StmtScc[S] = Scc;
      SccDepth[Scc] = std::max(SccDepth[Scc], K.Stmts[S].numIters());
    }
    std::vector<unsigned> SccGroup(Sccs.numSccs(), 0);
    unsigned Group = 0;
    for (unsigned Scc = 1; Scc != SccDepth.size(); ++Scc) {
      if (SccDepth[Scc] != SccDepth[Scc - 1])
        ++Group;
      SccGroup[Scc] = Group;
    }
    if (Group == 0)
      return; // All components share a depth: let fusion proceed.
    std::vector<unsigned> Topo(K.Stmts.size());
    for (unsigned S = 0, E = K.Stmts.size(); S != E; ++S)
      Topo[S] = SccGroup[StmtScc[S]];
    appendScalarDim(Topo);
    ++Stats.SccCuts;
  }

  struct Backup {
    std::vector<unsigned> Active;
    bool Recorded = false;
  };

  const Kernel &K;
  const SchedulerOptions &Options;
  const InfluenceTree *Tree;

  /// AllDeps refers here unless a DependenceMemo supplied them.
  std::vector<DependenceRelation> OwnDeps;
  const std::vector<DependenceRelation> &AllDeps;
  std::vector<unsigned> Active; ///< Indices of live validity relations.
  std::vector<std::optional<unsigned>> Carried;
  Schedule Partial;
  std::vector<Backup> Backups;
  InfluenceNode *Node = nullptr;
  bool NextStartsBand = true; ///< The next accepted dim opens a band.
  const InfluenceNode *ReachedLeaf = nullptr;
  SchedulerStats Stats;
  DimIlp LastIlp;
  /// Farkas expansions are invariant per relation within a construction
  /// (statement variable ids are fixed by makeDimIlp); the cache replays
  /// them across dimensions and re-attempts.
  FarkasCache Farkas;
};

} // namespace

SchedulerResult pinj::scheduleKernel(const Kernel &K,
                                     const SchedulerOptions &Options,
                                     const InfluenceTree *Tree,
                                     const DependenceMemo *Deps) {
  obs::Span S("sched.schedule");
  if (S.active())
    S.arg("kernel", K.Name).arg("influenced", Tree != nullptr);
  // The construction must never escape an exception: whatever goes
  // wrong (budget exhausted, stuck, overflow, injected fault), the
  // caller still gets a valid schedule — ultimately the original
  // program order — plus the Status explaining the downgrade.
  budget::BudgetScope Budget(Options.Budget);
  try {
    failpoint::hit("sched.schedule");
    {
      Construction C(K, Options, Tree, Deps);
      SchedulerResult Result;
      if (C.run(Result))
        return Result;
    }
    // The tree was abandoned: run as a plain polyhedral scheduler, in
    // the reference (isl-like) configuration, as the paper specifies.
    // Plain scheduling on a well-formed kernel cannot get stuck (SCC
    // separation always makes progress), but it can still exhaust the
    // solver budget or overflow; those raise and are handled below.
    SchedulerOptions Plain = Options;
    Plain.SerializeSccs = true;
    Construction C(K, Plain, nullptr, Deps);
    SchedulerResult Result;
    if (!C.run(Result))
      raiseError(StatusCode::Stuck, "sched.plain",
                 "plain scheduling failed after tree abandon");
    Result.Stats.TreeAbandoned = true;
    return Result;
  } catch (const RecoverableError &E) {
    obs::metrics().counter("sched.status_errors").inc();
    SchedulerResult Result;
    Result.Sched = originalSchedule(K, Deps);
    Result.Outcome = E.status();
    // A construction starved by its budget surfaces as "stuck" or as a
    // runaway dimension count (every ILP fails fast once any enclosing
    // budget trips, so only the non-solving fallbacks make "progress");
    // report the root cause instead.
    if (budget::anyTripped() &&
        (Result.Outcome.code() == StatusCode::Stuck ||
         Result.Outcome.code() == StatusCode::DimensionLimit))
      Result.Outcome = Status(StatusCode::BudgetExceeded, "sched.budget",
                              "solver budget exhausted during scheduling");
    Result.FellBackToOriginal = true;
    Result.Stats.TreeAbandoned = Tree != nullptr;
    return Result;
  }
}
