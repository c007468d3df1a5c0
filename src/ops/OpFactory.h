//===- ops/OpFactory.h - Fused AI/DL operator families ----------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized families of fused operators shaped like what
/// MindSpore's graph-kernel fusion hands to AKG: element-wise chains,
/// broadcast (bias) chains, layout-hostile copies/permutes produced by
/// fused transpose chains (the operator inherits the producer's
/// iteration order, which is strided for every access — the pattern
/// behind the paper's large ResNet speedups), reduction tails, and the
/// running example itself.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_OPS_OPFACTORY_H
#define POLYINJECT_OPS_OPFACTORY_H

#include "ir/Builder.h"

#include <vector>

namespace pinj {

/// The paper's running example, fused_mul_sub_mul_tensoradd from BERT
/// (Fig. 2(a)), with square extents N.
Kernel makeFusedMulSubMulTensorAdd(Int N);

/// A chain of \p Length element-wise statements over (Rows, Cols)
/// tensors; op kinds vary deterministically with \p Seed.
Kernel makeElementwiseChain(const std::string &Name, Int Rows, Int Cols,
                            unsigned Length, unsigned Seed);

/// OUT[i][j] = op(IN[i][j], BIAS[j]) followed by an activation — the
/// classic broadcast epilogue fusion.
Kernel makeBiasActivation(const std::string &Name, Int Rows, Int Cols,
                          unsigned Seed);

/// A 2D operator iterating in its producer's (transposed) order: both
/// accesses are strided along the original innermost loop. A plain
/// polyhedral scheduler keeps the order; the influenced one repairs it.
Kernel makeHostileOrderCopy(const std::string &Name, Int H, Int W,
                            unsigned Seed);

/// 3D variant of the layout-hostile family, shaped like an NCHW <-> NHWC
/// boundary inside a fused transpose chain.
Kernel makeHostileOrderPermute3D(const std::string &Name, Int C, Int H,
                                 Int W, unsigned Seed);

/// A 3D element-wise operator whose tensor layout is [h][c][w] while the
/// iteration order is (c, h, w): the innermost w is already contiguous,
/// but the influence cost model reorders the outer dimensions (smaller
/// strides first), changing the schedule with little performance effect
/// — the "influenced, near-neutral" population of MobileNet-like
/// suites in Table II.
Kernel makeMiddlePermuted3D(const std::string &Name, Int C, Int H, Int W,
                            unsigned Seed);

/// Element-wise stage followed by a row reduction (softmax/norm tails).
Kernel makeReduceTail(const std::string &Name, Int Rows, Int Cols,
                      unsigned Seed);

/// A softmax-shaped three-stage fusion: element-wise exp, a row
/// reduction of the result, and a normalization stage that reads the
/// finished row value — the last dependence forces the scheduler to
/// distribute the normalization from the reduction (every j of NORM
/// depends on every j of RED).
Kernel makeSoftmaxLike(const std::string &Name, Int Rows, Int Cols);

/// Two same-shape statements in producer/consumer relation: the plain
/// scheduler distributes them, influence fuses them (a schedule change
/// with near-neutral simulated cost — the "influenced, tiny speedup"
/// population of MobileNet-like networks).
Kernel makeProducerConsumerPair(const std::string &Name, Int Rows,
                                Int Cols, unsigned Seed);

/// The 22-operator corpus: every family above at modest shapes and
/// several seeds, in a fixed order (pinj-gen dumps it as tools/kernels/).
/// Both running-example sizes keep the factory name. \p Limit keeps the
/// first N operators (0 keeps all).
std::vector<Kernel> makeCorpus(unsigned Limit = 0);

} // namespace pinj

#endif // POLYINJECT_OPS_OPFACTORY_H
