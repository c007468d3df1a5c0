//===- support/Parallel.cpp -----------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

void pinj::parallelFor(std::size_t N, unsigned Workers,
                       const std::function<void(std::size_t)> &Fn) {
  std::size_t PoolSize = std::min<std::size_t>(Workers, N);
  if (PoolSize <= 1) {
    for (std::size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  std::atomic<std::size_t> Next{0};
  auto Work = [&] {
    for (std::size_t I = Next++; I < N; I = Next++)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  Pool.reserve(PoolSize);
  for (std::size_t W = 0; W != PoolSize; ++W)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
}
