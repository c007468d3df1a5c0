//===- codegen/Mapping.h - GPU block/thread mapping -------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies schedule rows and assigns GPU roles to scheduling
/// dimensions: blocks, threads, per-thread sequential loops, the
/// vector-marked dimension (which the mapping pass skips, the paper's
/// first AKG modification), and scalar ordering dimensions. The result
/// drives both the CUDA-like printer and the GPU simulator.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_CODEGEN_MAPPING_H
#define POLYINJECT_CODEGEN_MAPPING_H

#include "sched/Schedule.h"

#include <compare>

namespace pinj {

/// Shape of one schedule row for one statement.
struct RowShape {
  enum KindTy {
    Zero, ///< No iterator contribution: a padding/scalar row.
    Unit, ///< Exactly one iterator with coefficient 1 (plus a shift).
    Other ///< Anything else (not generatable by this backend).
  };
  KindTy Kind = Zero;
  unsigned Iter = 0; ///< Bound iterator for Unit rows.
  Int Shift = 0;     ///< Constant part of the row.
};

/// Classifies the row of statement \p Stmt at dimension \p Dim.
RowShape analyzeRow(const Kernel &K, const Schedule &S, unsigned Stmt,
                    unsigned Dim);

/// True if every row of every statement is Zero or Unit — the class of
/// schedules this backend can generate (always the case for the
/// schedulers in this project on the operator domain).
bool isGeneratableSchedule(const Kernel &K, const Schedule &S);

/// GPU mapping tunables.
struct GpuMappingOptions {
  Int MaxThreadsPerBlock = 1024;

  auto operator<=>(const GpuMappingOptions &) const = default;
};

/// The role a scheduling dimension plays on the GPU.
enum class DimRole {
  Block,  ///< Mapped to the grid.
  Thread, ///< Mapped to threads of a block.
  Seq,    ///< Sequential loop inside each thread.
  Vector, ///< Innermost loop rewritten with vector types (not mapped).
  Scalar  ///< Statement-ordering dimension (no loop).
};

const char *dimRoleName(DimRole Role);

/// Mapping decision for one scheduling dimension.
///
/// Vector dimensions are strip-mined: each thread covers VectorWidth
/// consecutive iterations with one vector load/store, and the lane
/// groups (Extent / VectorWidth of them) are thread-mapped exactly like
/// a Thread dimension (ThreadCount lanes, BlockFactor outer split).
/// This is what lets explicit vector types and memory coalescing
/// compose, the combination the paper exploits.
struct DimMapping {
  DimRole Role = DimRole::Seq;
  Int Extent = 1;       ///< Loop trip count (max over statements).
  unsigned VectorWidth = 0;
  Int ThreadCount = 1;  ///< Lanes covering this dim (Thread or Vector).
  Int BlockFactor = 1;  ///< Outer split factor when lanes < groups.
};

/// A schedule plus mapping decisions, ready for simulation/printing.
struct MappedKernel {
  const Kernel *K = nullptr;
  Schedule Sched;
  std::vector<DimMapping> Dims;
  /// IterDim[stmt][iter] = schedule dimension binding that iterator, or
  /// -1 when unbound (cannot happen for full-rank schedules).
  std::vector<std::vector<int>> IterDim;

  Int threadsPerBlock() const;
  Int numBlocks() const;
};

/// Assigns GPU roles: scalar dims keep their role, vector-marked dims
/// are skipped by the mapping (the paper's modification), parallel dims
/// are mapped innermost-first to threads within the budget and the rest
/// to blocks, and sequential dims stay inside threads.
MappedKernel mapToGpu(const Kernel &K, const Schedule &S,
                      const GpuMappingOptions &Options = GpuMappingOptions());

} // namespace pinj

#endif // POLYINJECT_CODEGEN_MAPPING_H
