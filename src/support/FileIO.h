//===- support/FileIO.h - Whole-file read and write -------------*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-file read and write for the tools and loaders that exchange JSON
/// documents with disk (traces, topologies, reports, history stores). Both
/// report failure as a one-line message naming the path, which callers
/// print or prefix as they see fit.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SUPPORT_FILEIO_H
#define CHEETAH_SUPPORT_FILEIO_H

#include <string>

namespace cheetah {

/// Appends the whole of \p Path to \p Out. \returns false with \p Error set
/// to "cannot open 'PATH' for reading" or "failed reading 'PATH'".
bool readFile(const std::string &Path, std::string &Out, std::string &Error);

/// Replaces \p Path's contents with \p Text. \returns false with \p Error
/// set to "cannot open 'PATH' for writing" or "short write to 'PATH'".
bool writeFile(const std::string &Path, const std::string &Text,
               std::string &Error);

} // namespace cheetah

#endif // CHEETAH_SUPPORT_FILEIO_H
