//===- sched/InfluenceTree.cpp --------------------------------------------===//

#include "sched/InfluenceTree.h"

using namespace pinj;

InfluenceNode *InfluenceNode::addChild(std::string ChildLabel) {
  auto Child = std::make_unique<InfluenceNode>();
  Child->Depth = (Parent == nullptr && Label == "root") ? 0 : Depth + 1;
  Child->Parent = this;
  Child->Label = std::move(ChildLabel);
  Children.push_back(std::move(Child));
  return Children.back().get();
}

InfluenceNode *InfluenceNode::rightSibling() const {
  if (!Parent)
    return nullptr;
  for (unsigned I = 0, E = Parent->Children.size(); I != E; ++I) {
    if (Parent->Children[I].get() == this)
      return I + 1 < E ? Parent->Children[I + 1].get() : nullptr;
  }
  return nullptr;
}

InfluenceConstraint pinj::makeCoeffEquals(unsigned Stmt, unsigned Dim,
                                          unsigned CoeffIdx, Int Value) {
  InfluenceConstraint C;
  C.Terms.push_back({Stmt, Dim, CoeffIdx, 1});
  C.Constant = checkedNeg(Value);
  C.Rel = InfluenceConstraint::Eq;
  return C;
}

InfluenceConstraint pinj::makeCoeffsEqual(unsigned StmtA, unsigned DimA,
                                          unsigned CoeffA, unsigned StmtB,
                                          unsigned DimB, unsigned CoeffB) {
  InfluenceConstraint C;
  C.Terms.push_back({StmtA, DimA, CoeffA, 1});
  C.Terms.push_back({StmtB, DimB, CoeffB, -1});
  C.Constant = 0;
  C.Rel = InfluenceConstraint::Eq;
  return C;
}

namespace {

std::string describeTerms(const Kernel &K,
                          const std::vector<CoeffTerm> &Terms) {
  std::string Out;
  for (unsigned I = 0, E = Terms.size(); I != E; ++I) {
    const CoeffTerm &T = Terms[I];
    if (I != 0)
      Out += T.Factor >= 0 ? " + " : " ";
    if (T.Factor != 1 && !(I != 0 && T.Factor == -1))
      Out += std::to_string(T.Factor) + "*";
    else if (I != 0 && T.Factor == -1)
      Out += "- ";
    const Statement &S = K.Stmts[T.Stmt];
    std::string CoeffName;
    if (T.CoeffIdx < S.numIters())
      CoeffName = S.IterNames[T.CoeffIdx];
    else if (T.CoeffIdx < S.numIters() + K.numParams())
      CoeffName = K.ParamNames[T.CoeffIdx - S.numIters()];
    else
      CoeffName = "1";
    Out += "T[" + S.Name + "," + std::to_string(T.Dim) + "," + CoeffName +
           "]";
  }
  return Out;
}

std::string describeConstraint(const Kernel &K,
                               const InfluenceConstraint &C) {
  std::string Out = describeTerms(K, C.Terms);
  if (C.Constant != 0)
    Out += (C.Constant > 0 ? " + " : " - ") +
           std::to_string(C.Constant > 0 ? C.Constant : -C.Constant);
  switch (C.Rel) {
  case InfluenceConstraint::Ge:
    Out += " >= 0";
    break;
  case InfluenceConstraint::Eq:
    Out += " == 0";
    break;
  case InfluenceConstraint::Le:
    Out += " <= 0";
    break;
  }
  return Out;
}

void printNode(const Kernel &K, const InfluenceNode &Node, unsigned Indent,
               std::string &Out) {
  std::string Pad(Indent * 2, ' ');
  Out += Pad + "node depth=" + std::to_string(Node.Depth) + " '" +
         Node.Label + "'";
  if (Node.RequireParallel)
    Out += " require-parallel";
  if (!Node.VectorStmts.empty()) {
    Out += " vector(x" + std::to_string(Node.VectorWidth) + ":";
    for (unsigned S : Node.VectorStmts)
      Out += " " + K.Stmts[S].Name;
    Out += ")";
  }
  Out += "\n";
  for (const InfluenceConstraint &C : Node.Constraints)
    Out += Pad + "  " + describeConstraint(K, C) + "\n";
  for (const InfluenceObjective &O : Node.Objectives)
    Out += Pad + "  minimize " + describeTerms(K, O.Terms) + "\n";
  for (const auto &Child : Node.Children)
    printNode(K, *Child, Indent + 1, Out);
}

void appendU64(std::string &Out, std::uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}

void appendTerms(std::string &Out, const std::vector<CoeffTerm> &Terms) {
  appendU64(Out, Terms.size());
  for (const CoeffTerm &T : Terms) {
    appendU64(Out, T.Stmt);
    appendU64(Out, T.Dim);
    appendU64(Out, T.CoeffIdx);
    appendU64(Out, static_cast<std::uint64_t>(T.Factor));
  }
}

void appendNode(std::string &Out, const InfluenceNode &Node) {
  appendU64(Out, Node.Depth);
  appendU64(Out, Node.Label.size());
  Out += Node.Label;
  appendU64(Out, Node.Constraints.size());
  for (const InfluenceConstraint &C : Node.Constraints) {
    appendTerms(Out, C.Terms);
    appendU64(Out, static_cast<std::uint64_t>(C.Constant));
    appendU64(Out, C.Rel);
  }
  appendU64(Out, Node.Objectives.size());
  for (const InfluenceObjective &O : Node.Objectives)
    appendTerms(Out, O.Terms);
  appendU64(Out, Node.RequireParallel);
  appendU64(Out, Node.VectorStmts.size());
  for (unsigned S : Node.VectorStmts)
    appendU64(Out, S);
  appendU64(Out, Node.VectorWidth);
  appendU64(Out, Node.Children.size());
  for (const auto &Child : Node.Children)
    appendNode(Out, *Child);
}

} // namespace

std::string InfluenceTree::key() const {
  std::string Out;
  appendNode(Out, Root);
  return Out;
}

std::string InfluenceTree::str(const Kernel &K) const {
  std::string Out;
  for (const auto &Child : Root.Children)
    printNode(K, *Child, 0, Out);
  return Out;
}
