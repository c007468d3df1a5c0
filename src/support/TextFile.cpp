//===- support/TextFile.cpp -----------------------------------------------===//

#include "support/TextFile.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace pinj;

namespace fs = std::filesystem;

bool pinj::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return false;
  Out = Buf.str();
  return true;
}

bool pinj::writeFileAtomic(const std::string &Path, const std::string &Bytes,
                           std::string *Err) {
  auto Fail = [Err](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  // The pid keeps two processes apart: with ASLR off their main threads
  // can share one thread id.
  std::ostringstream TmpName;
  TmpName << Path << ".tmp." << ::getpid() << '.' << std::this_thread::get_id();
  std::string Tmp = TmpName.str();
  std::error_code Ec;
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Fail("cannot open " + Tmp + " for writing");
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    Out.close();
    if (!Out) {
      fs::remove(Tmp, Ec);
      return Fail("write to " + Tmp + " failed");
    }
  }
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    std::string Why = Ec.message();
    fs::remove(Tmp, Ec);
    return Fail("rename to " + Path + " failed: " + Why);
  }
  return true;
}

std::string pinj::sanitizeToken(const std::string &S) {
  std::string Out = S.empty() ? "_" : S;
  for (char &C : Out)
    if (std::isspace(static_cast<unsigned char>(C)))
      C = '_';
  return Out;
}

bool pinj::parseFiniteDouble(const std::string &Tok, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  return End != Tok.c_str() && *End == '\0' && std::isfinite(Out);
}

bool pinj::isLowerHex32(const std::string &S) {
  if (S.size() != 32)
    return false;
  for (char C : S)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}
