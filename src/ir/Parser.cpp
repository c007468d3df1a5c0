//===- ir/Parser.cpp ------------------------------------------------------===//

#include "ir/Parser.h"

#include "ir/Builder.h"
#include "support/TextFile.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace pinj;

std::optional<OpKind> pinj::parseOpKind(const std::string &Name) {
  static const std::map<std::string, OpKind> Kinds = {
      {"assign", OpKind::Assign}, {"add", OpKind::Add},
      {"sub", OpKind::Sub},       {"mul", OpKind::Mul},
      {"div", OpKind::Div},       {"max", OpKind::Max},
      {"min", OpKind::Min},       {"relu", OpKind::Relu},
      {"exp", OpKind::Exp},       {"rsqrt", OpKind::Rsqrt},
      {"neg", OpKind::Neg},       {"fma", OpKind::Fma},
      {"mulsub", OpKind::MulSub},
  };
  auto It = Kinds.find(Name);
  if (It == Kinds.end())
    return std::nullopt;
  return It->second;
}

namespace {

/// Parses one index expression: "i", "3" or "i+2".
std::optional<IndexExpr> parseIndexExpr(const std::string &Text) {
  if (Text.empty())
    return std::nullopt;
  size_t Plus = Text.find('+');
  std::string Base = Text.substr(0, Plus);
  Int Offset = 0;
  if (Plus != std::string::npos) {
    std::string Tail = Text.substr(Plus + 1);
    if (Tail.empty() || Tail.size() > 18 ||
        Tail.find_first_not_of("0123456789") != std::string::npos)
      return std::nullopt;
    Offset = std::stoll(Tail);
  }
  if (Base.empty())
    return std::nullopt;
  if (std::isdigit(static_cast<unsigned char>(Base[0]))) {
    if (Base.size() > 18 ||
        Base.find_first_not_of("0123456789") != std::string::npos ||
        Plus != std::string::npos)
      return std::nullopt;
    return IndexExpr(static_cast<Int>(std::stoll(Base)));
  }
  IndexExpr E(Base.c_str());
  return E + Offset;
}

/// Parses "NAME[idx][idx]..." into tensor name + index expressions.
bool parseAccess(const std::string &Text, std::string &TensorName,
                 std::vector<IndexExpr> &Indices) {
  size_t Open = Text.find('[');
  if (Open == std::string::npos || Open == 0)
    return false;
  TensorName = Text.substr(0, Open);
  size_t Pos = Open;
  while (Pos < Text.size()) {
    if (Text[Pos] != '[')
      return false;
    size_t Close = Text.find(']', Pos);
    if (Close == std::string::npos)
      return false;
    std::optional<IndexExpr> E =
        parseIndexExpr(Text.substr(Pos + 1, Close - Pos - 1));
    if (!E)
      return false;
    Indices.push_back(*E);
    Pos = Close + 1;
  }
  return true;
}

} // namespace

std::optional<Kernel> pinj::parseKernel(const std::string &Text,
                                        std::string &Error) {
  std::map<std::string, unsigned> TensorIds;
  KernelBuilder Builder("kernel");
  bool NamedKernel = false;
  bool AnyStmt = false;

  // Join continued lines, strip comments.
  std::vector<std::pair<unsigned, std::string>> Lines;
  {
    std::istringstream In(Text);
    std::string Raw;
    unsigned LineNo = 0, StartLine = 0;
    std::string Joined;
    while (std::getline(In, Raw)) {
      ++LineNo;
      size_t Hash = Raw.find('#');
      if (Hash != std::string::npos)
        Raw = Raw.substr(0, Hash);
      bool Continued = false;
      size_t End = Raw.find_last_not_of(" \t");
      if (End != std::string::npos && Raw[End] == '\\') {
        Raw = Raw.substr(0, End);
        Continued = true;
      }
      if (Joined.empty())
        StartLine = LineNo;
      Joined += Raw + " ";
      if (Continued)
        continue;
      if (Joined.find_first_not_of(" \t") != std::string::npos)
        Lines.emplace_back(StartLine, Joined);
      Joined.clear();
    }
    if (!Joined.empty() &&
        Joined.find_first_not_of(" \t") != std::string::npos)
      Lines.emplace_back(StartLine, Joined);
  }

  auto fail = [&Error](unsigned Line, const std::string &Message) {
    Error = "line " + std::to_string(Line) + ": " + Message;
    return std::nullopt;
  };

  for (auto &[LineNo, Line] : Lines) {
    std::istringstream Tokens(Line);
    std::string Keyword;
    Tokens >> Keyword;
    if (Keyword == "kernel") {
      std::string Name;
      if (!(Tokens >> Name))
        return fail(LineNo, "kernel needs a name");
      if (NamedKernel)
        return fail(LineNo, "duplicate kernel line");
      NamedKernel = true;
      Builder = KernelBuilder(Name);
      TensorIds.clear();
      continue;
    }
    if (Keyword == "tensor") {
      std::string Name;
      if (!(Tokens >> Name))
        return fail(LineNo, "tensor needs a name");
      if (TensorIds.count(Name))
        return fail(LineNo, "duplicate tensor '" + Name + "'");
      std::vector<Int> Shape;
      Int Extent;
      while (Tokens >> Extent) {
        if (Extent <= 0)
          return fail(LineNo, "tensor extents must be positive");
        Shape.push_back(Extent);
      }
      if (Shape.empty())
        return fail(LineNo, "tensor needs at least one extent");
      TensorIds[Name] = Builder.tensor(Name, std::move(Shape));
      continue;
    }
    if (Keyword == "stmt") {
      std::string Name, Section;
      if (!(Tokens >> Name) || !(Tokens >> Section) || Section != "iter")
        return fail(LineNo, "expected: stmt NAME iter i=EXTENT ...");
      std::vector<std::pair<std::string, Int>> Iters;
      std::string Token;
      OpKind Kind = OpKind::Assign;
      bool HaveOp = false;
      while (Tokens >> Token && Token != "op") {
        size_t Eq = Token.find('=');
        if (Eq == std::string::npos || Eq == 0)
          return fail(LineNo, "iterator must be name=extent: " + Token);
        std::string ExtentText = Token.substr(Eq + 1);
        if (ExtentText.empty() ||
            ExtentText.find_first_not_of("0123456789") != std::string::npos ||
            ExtentText.size() > 18)
          return fail(LineNo, "malformed iterator extent: " + Token);
        Int Extent = std::stoll(ExtentText);
        if (Extent <= 0)
          return fail(LineNo, "iterator extents must be positive");
        Iters.emplace_back(Token.substr(0, Eq), Extent);
      }
      if (Token == "op") {
        std::string OpName;
        if (!(Tokens >> OpName))
          return fail(LineNo, "op needs a mnemonic");
        std::optional<OpKind> Parsed = parseOpKind(OpName);
        if (!Parsed)
          return fail(LineNo, "unknown op '" + OpName + "'");
        Kind = *Parsed;
        HaveOp = true;
      }
      if (Iters.empty())
        return fail(LineNo, "statement needs at least one iterator");
      if (!HaveOp)
        return fail(LineNo, "statement needs an op");

      Builder.stmt(Name, Iters).op(Kind);
      bool HaveWrite = false;
      unsigned NumReads = 0;
      std::string What;
      while (Tokens >> What) {
        std::string AccessText;
        if (!(Tokens >> AccessText))
          return fail(LineNo, What + " needs an access");
        std::string TensorName;
        std::vector<IndexExpr> Indices;
        if (!parseAccess(AccessText, TensorName, Indices))
          return fail(LineNo, "malformed access: " + AccessText);
        auto It = TensorIds.find(TensorName);
        if (It == TensorIds.end())
          return fail(LineNo, "unknown tensor '" + TensorName + "'");
        try {
          if (What == "write") {
            if (HaveWrite)
              return fail(LineNo, "statement has two writes");
            Builder.write(It->second, std::move(Indices));
            HaveWrite = true;
          } else if (What == "read") {
            Builder.read(It->second, std::move(Indices));
            ++NumReads;
          } else {
            return fail(LineNo, "expected 'write' or 'read', got " + What);
          }
        } catch (const RecoverableError &E) {
          return fail(LineNo, E.status().message());
        }
      }
      if (!HaveWrite)
        return fail(LineNo, "statement needs a write");
      if (NumReads != numOperands(Kind))
        return fail(LineNo, "op expects " +
                                std::to_string(numOperands(Kind)) +
                                " reads, got " + std::to_string(NumReads));
      AnyStmt = true;
      continue;
    }
    return fail(LineNo, "unknown keyword '" + Keyword + "'");
  }
  if (!AnyStmt) {
    Error = "kernel has no statements";
    return std::nullopt;
  }
  // build() runs Kernel::verify() and raises InvalidInput on anything the
  // line-by-line checks above missed (access arity, tensor shapes, ...).
  try {
    return Builder.build();
  } catch (const RecoverableError &E) {
    Error = E.status().message();
    return std::nullopt;
  }
}

std::optional<Kernel> pinj::loadKernelFile(const std::string &Path,
                                           std::string &Error) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Error = "error: cannot open " + Path;
    return std::nullopt;
  }
  std::optional<Kernel> K = parseKernel(Text, Error);
  if (!K) {
    Error = Path + ": " + Error;
    return std::nullopt;
  }
  std::string Diag = K->verify();
  if (!Diag.empty()) {
    Error = Path + ": malformed kernel: " + Diag;
    return std::nullopt;
  }
  return K;
}

bool pinj::readOpsFile(const std::string &ListPath,
                       std::vector<std::string> &Paths, std::string &Error) {
  std::ifstream In(ListPath);
  if (!In) {
    Error = "error: cannot open " + ListPath;
    return false;
  }
  std::filesystem::path Base = std::filesystem::path(ListPath).parent_path();
  std::string Line;
  while (std::getline(In, Line)) {
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    std::size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos)
      continue;
    std::size_t Last = Line.find_last_not_of(" \t\r");
    std::string Entry = Line.substr(First, Last - First + 1);
    std::filesystem::path P(Entry);
    Paths.push_back(P.is_absolute() ? P.string() : (Base / P).string());
  }
  return true;
}
