//===- ops/OpFactory.cpp --------------------------------------------------===//

#include "ops/OpFactory.h"

using namespace pinj;

namespace {

/// Deterministic tiny PRNG for op-kind variety.
struct Rng {
  unsigned State;
  explicit Rng(unsigned Seed) : State(Seed * 2654435761u + 97u) {}
  unsigned next(unsigned Bound) {
    State = State * 1664525u + 1013904223u;
    return (State >> 16) % Bound;
  }
};

OpKind pickUnary(Rng &R) {
  static const OpKind Kinds[] = {OpKind::Relu, OpKind::Exp, OpKind::Neg,
                                 OpKind::Rsqrt, OpKind::Assign};
  return Kinds[R.next(5)];
}

OpKind pickBinary(Rng &R) {
  static const OpKind Kinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul,
                                 OpKind::Max, OpKind::Min};
  return Kinds[R.next(5)];
}

} // namespace

Kernel pinj::makeFusedMulSubMulTensorAdd(Int N) {
  KernelBuilder B("fused_mul_sub_mul_tensoradd");
  unsigned A = B.tensor("A", {N, N});
  unsigned Bt = B.tensor("B", {N, N});
  unsigned C = B.tensor("C", {N, N});
  unsigned D = B.tensor("D", {N, N, N});
  B.stmt("X", {{"i", N}, {"k", N}})
      .write(Bt, {"i", "k"})
      .read(A, {"i", "k"})
      .op(OpKind::Relu);
  B.stmt("Y", {{"i", N}, {"j", N}, {"k", N}})
      .write(C, {"i", "j"})
      .read(C, {"i", "j"})
      .read(Bt, {"i", "k"})
      .read(D, {"k", "i", "j"})
      .op(OpKind::Fma);
  return B.build();
}

Kernel pinj::makeElementwiseChain(const std::string &Name, Int Rows,
                                  Int Cols, unsigned Length,
                                  unsigned Seed) {
  assert(Length >= 1 && "chain needs at least one statement");
  Rng R(Seed);
  KernelBuilder B(Name);
  std::vector<unsigned> Temps;
  Temps.push_back(B.tensor("IN", {Rows, Cols}));
  for (unsigned S = 0; S != Length; ++S)
    Temps.push_back(
        B.tensor(S + 1 == Length ? "OUT" : "T" + std::to_string(S + 1),
                 {Rows, Cols}));
  unsigned Second = B.tensor("IN2", {Rows, Cols});
  for (unsigned S = 0; S != Length; ++S) {
    bool Binary = R.next(3) == 0;
    KernelBuilder &Stmt =
        B.stmt("S" + std::to_string(S), {{"i", Rows}, {"j", Cols}})
            .write(Temps[S + 1], {"i", "j"})
            .read(Temps[S], {"i", "j"});
    if (Binary)
      Stmt.read(Second, {"i", "j"}).op(pickBinary(R));
    else
      Stmt.op(pickUnary(R));
  }
  return B.build();
}

Kernel pinj::makeBiasActivation(const std::string &Name, Int Rows, Int Cols,
                                unsigned Seed) {
  Rng R(Seed);
  KernelBuilder B(Name);
  unsigned In = B.tensor("IN", {Rows, Cols});
  unsigned Bias = B.tensor("BIAS", {Cols});
  unsigned Tmp = B.tensor("T1", {Rows, Cols});
  unsigned Out = B.tensor("OUT", {Rows, Cols});
  B.stmt("ADD", {{"i", Rows}, {"j", Cols}})
      .write(Tmp, {"i", "j"})
      .read(In, {"i", "j"})
      .read(Bias, {"j"})
      .op(pickBinary(R));
  B.stmt("ACT", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i", "j"})
      .read(Tmp, {"i", "j"})
      .op(pickUnary(R));
  return B.build();
}

Kernel pinj::makeHostileOrderCopy(const std::string &Name, Int H, Int W,
                                  unsigned Seed) {
  Rng R(Seed);
  KernelBuilder B(Name);
  unsigned In = B.tensor("IN", {H, W});
  unsigned Out = B.tensor("OUT", {H, W});
  // The fused transpose chain iterates in the producer's order (w, h);
  // both [h][w] accesses are W-strided along the inner loop h.
  B.stmt("P", {{"w", W}, {"h", H}})
      .write(Out, {"h", "w"})
      .read(In, {"h", "w"})
      .op(pickUnary(R));
  return B.build();
}

Kernel pinj::makeHostileOrderPermute3D(const std::string &Name, Int C,
                                       Int H, Int W, unsigned Seed) {
  Rng R(Seed);
  KernelBuilder B(Name);
  unsigned In = B.tensor("IN", {C, H, W});
  unsigned Out = B.tensor("OUT", {C, H, W});
  // Iterates (w, c, h): the original innermost loop h strides by W on
  // both sides; the contiguous dimension w sits outermost.
  B.stmt("P", {{"w", W}, {"c", C}, {"h", H}})
      .write(Out, {"c", "h", "w"})
      .read(In, {"c", "h", "w"})
      .op(pickUnary(R));
  return B.build();
}

Kernel pinj::makeMiddlePermuted3D(const std::string &Name, Int C, Int H,
                                  Int W, unsigned Seed) {
  Rng R(Seed);
  KernelBuilder B(Name);
  unsigned In = B.tensor("IN", {H, C, W});
  unsigned Out = B.tensor("OUT", {H, C, W});
  B.stmt("E", {{"c", C}, {"h", H}, {"w", W}})
      .write(Out, {"h", "c", "w"})
      .read(In, {"h", "c", "w"})
      .op(pickUnary(R));
  return B.build();
}

Kernel pinj::makeReduceTail(const std::string &Name, Int Rows, Int Cols,
                            unsigned Seed) {
  Rng R(Seed);
  KernelBuilder B(Name);
  unsigned In = B.tensor("IN", {Rows, Cols});
  unsigned Tmp = B.tensor("T1", {Rows, Cols});
  unsigned One = B.tensor("ONE", {1});
  unsigned Out = B.tensor("OUT", {Rows});
  B.stmt("EW", {{"i", Rows}, {"j", Cols}})
      .write(Tmp, {"i", "j"})
      .read(In, {"i", "j"})
      .op(pickUnary(R));
  B.stmt("RED", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i"})
      .read(Out, {"i"})
      .read(Tmp, {"i", "j"})
      .read(One, {IndexExpr(Int(0))})
      .op(OpKind::Fma);
  return B.build();
}

Kernel pinj::makeSoftmaxLike(const std::string &Name, Int Rows,
                             Int Cols) {
  KernelBuilder B(Name);
  unsigned In = B.tensor("IN", {Rows, Cols});
  unsigned Tmp = B.tensor("T1", {Rows, Cols});
  unsigned One = B.tensor("ONE", {1});
  unsigned Row = B.tensor("R", {Rows});
  unsigned Out = B.tensor("OUT", {Rows, Cols});
  B.stmt("EXP", {{"i", Rows}, {"j", Cols}})
      .write(Tmp, {"i", "j"})
      .read(In, {"i", "j"})
      .op(OpKind::Exp);
  B.stmt("RED", {{"i", Rows}, {"j", Cols}})
      .write(Row, {"i"})
      .read(Row, {"i"})
      .read(Tmp, {"i", "j"})
      .read(One, {IndexExpr(Int(0))})
      .op(OpKind::Fma);
  B.stmt("NORM", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i", "j"})
      .read(Tmp, {"i", "j"})
      .read(Row, {"i"})
      .op(OpKind::Div);
  return B.build();
}

Kernel pinj::makeProducerConsumerPair(const std::string &Name, Int Rows,
                                      Int Cols, unsigned Seed) {
  Rng R(Seed);
  KernelBuilder B(Name);
  unsigned In = B.tensor("IN", {Rows, Cols});
  unsigned Tmp = B.tensor("T1", {Rows, Cols});
  unsigned Out = B.tensor("OUT", {Rows, Cols});
  B.stmt("P", {{"i", Rows}, {"j", Cols}})
      .write(Tmp, {"i", "j"})
      .read(In, {"i", "j"})
      .op(pickUnary(R));
  B.stmt("Q", {{"i", Rows}, {"j", Cols}})
      .write(Out, {"i", "j"})
      .read(Tmp, {"i", "j"})
      .read(Tmp, {"i", "j"})
      .op(pickBinary(R));
  return B.build();
}

std::vector<Kernel> pinj::makeCorpus(unsigned Limit) {
  std::vector<Kernel> Corpus = {
      makeFusedMulSubMulTensorAdd(64),
      makeFusedMulSubMulTensorAdd(96),
      makeElementwiseChain("ew_chain_short", 64, 128, 2, 1),
      makeElementwiseChain("ew_chain_mid", 96, 96, 4, 2),
      makeElementwiseChain("ew_chain_long", 64, 192, 6, 3),
      makeElementwiseChain("ew_chain_wide", 32, 256, 3, 4),
      makeBiasActivation("bias_relu", 64, 128, 1),
      makeBiasActivation("bias_act_2", 96, 64, 2),
      makeBiasActivation("bias_act_3", 128, 96, 3),
      makeHostileOrderCopy("hostile_copy_a", 64, 96, 1),
      makeHostileOrderCopy("hostile_copy_b", 96, 128, 2),
      makeHostileOrderPermute3D("hostile_permute_a", 8, 32, 48, 1),
      makeHostileOrderPermute3D("hostile_permute_b", 16, 24, 32, 2),
      makeMiddlePermuted3D("middle_permuted_a", 8, 24, 64, 1),
      makeMiddlePermuted3D("middle_permuted_b", 12, 16, 96, 2),
      makeReduceTail("reduce_tail_a", 64, 128, 1),
      makeReduceTail("reduce_tail_b", 96, 96, 2),
      makeSoftmaxLike("softmax_like_a", 48, 96),
      makeSoftmaxLike("softmax_like_b", 64, 64),
      makeProducerConsumerPair("prodcons_a", 64, 96, 1),
      makeProducerConsumerPair("prodcons_b", 96, 64, 2),
      makeElementwiseChain("ew_chain_tail", 48, 160, 5, 5)};
  if (Limit && Limit < Corpus.size())
    Corpus.resize(Limit);
  return Corpus;
}
