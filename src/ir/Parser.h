//===- ir/Parser.h - Textual kernel format ----------------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small line-based textual format for fused operators, consumed by
/// the polyinject-opt driver and handy in tests:
///
/// \code
///   kernel bias_relu
///   tensor IN 256 512
///   tensor BIAS 512
///   tensor TMP 256 512
///   tensor OUT 256 512
///   stmt ADD iter i=256 j=512 op add write TMP[i][j] (backslash)
///        read IN[i][j] read BIAS[j]
///   stmt ACT iter i=256 j=512 op relu write OUT[i][j] read TMP[i][j]
/// \endcode
///
/// Index expressions are an iterator name, an integer, or `iter+int`.
/// Lines starting with '#' are comments; a trailing backslash continues
/// a line.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_IR_PARSER_H
#define POLYINJECT_IR_PARSER_H

#include "ir/Kernel.h"

#include <optional>
#include <string>
#include <vector>

namespace pinj {

/// Parses \p Text; on failure \returns nullopt and fills \p Error with a
/// "line N: message" diagnostic.
std::optional<Kernel> parseKernel(const std::string &Text,
                                  std::string &Error);

/// Reads, parses and verifies the kernel file \p Path; on failure
/// \returns nullopt and fills \p Error with the whole diagnostic line
/// ("error: cannot open PATH", "PATH: line N: ...", "PATH: malformed
/// kernel: ...").
std::optional<Kernel> loadKernelFile(const std::string &Path,
                                     std::string &Error);

/// Appends the kernel paths of an ops list file to \p Paths: one path
/// per line, '#' comments, relative paths resolved against the list
/// file's directory. On failure \returns false and fills \p Error as
/// loadKernelFile does.
bool readOpsFile(const std::string &ListPath, std::vector<std::string> &Paths,
                 std::string &Error);

/// Parses an op kind mnemonic ("add", "fma", ...); nullopt if unknown.
std::optional<OpKind> parseOpKind(const std::string &Name);

} // namespace pinj

#endif // POLYINJECT_IR_PARSER_H
