//===- support/Parallel.h - Index-range worker pool -------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SUPPORT_PARALLEL_H
#define POLYINJECT_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace pinj {

/// Calls \p Fn(I) once for every I in [0, \p N) on min(\p Workers, N)
/// threads that claim indices from a shared counter, and returns after
/// all calls finished. With at most one worker the calls run inline on
/// the caller's thread, in index order. \p Fn must not throw, and calls
/// for different indices must touch disjoint state.
void parallelFor(std::size_t N, unsigned Workers,
                 const std::function<void(std::size_t)> &Fn);

} // namespace pinj

#endif // POLYINJECT_SUPPORT_PARALLEL_H
