//===- support/FileIO.cpp - Whole-file read and write ---------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <cstdio>

using namespace cheetah;

bool cheetah::readFile(const std::string &Path, std::string &Out,
                       std::string &Error) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Error = "cannot open '" + Path + "' for reading";
    return false;
  }
  char Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.append(Buffer, Read);
  bool Ok = !std::ferror(File);
  std::fclose(File);
  if (!Ok)
    Error = "failed reading '" + Path + "'";
  return Ok;
}

bool cheetah::writeFile(const std::string &Path, const std::string &Text,
                        std::string &Error) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  bool Closed = std::fclose(File) == 0;
  if (Written != Text.size() || !Closed) {
    Error = "short write to '" + Path + "'";
    return false;
  }
  return true;
}
