//===- support/TextFile.h - Persisted-file I/O and token helpers -*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way PolyInject reads and writes a file it persists between
/// runs (cache entries, tuning databases, `.ptgt` targets, datasets,
/// models, the metrics exposition), plus the token helpers the
/// whitespace-tokenized text formats share. Each format keeps its own
/// parser and reject policy; only the byte I/O and the identical
/// token checks live here.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SUPPORT_TEXTFILE_H
#define POLYINJECT_SUPPORT_TEXTFILE_H

#include <string>

namespace pinj {

/// Reads the whole of \p Path (binary) into \p Out. \returns false when
/// the file cannot be opened or a read fails.
bool readFile(const std::string &Path, std::string &Out);

/// Replaces \p Path with \p Bytes rename-atomically: the bytes go to
/// `<Path>.tmp.<pid>.<thread-id>` (unique per writer, even across
/// processes), the close is checked, and only a complete temp file is
/// renamed over \p Path, so readers see the old file or the new one,
/// never a torn one. On failure the temp file is removed, \p Path is
/// untouched, \p Err (if non-null) says why, and the result is false.
bool writeFileAtomic(const std::string &Path, const std::string &Bytes,
                     std::string *Err);

/// Makes \p S a single token of a whitespace-tokenized format: empty
/// becomes "_", every whitespace character becomes '_'.
std::string sanitizeToken(const std::string &S);

/// Parses \p Tok as a double; the whole token must parse and the value
/// must be finite.
bool parseFiniteDouble(const std::string &Tok, double &Out);

/// True iff \p S is exactly 32 lowercase hex digits (a 128-bit hash).
bool isLowerHex32(const std::string &S);

} // namespace pinj

#endif // POLYINJECT_SUPPORT_TEXTFILE_H
