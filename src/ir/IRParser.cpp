//===- ir/IRParser.cpp - Textual IR parsing ----------------------------------===//

#include "ir/IRParser.h"

#include "ir/Program.h"
#include "support/StrUtil.h"

#include <cassert>
#include <cctype>
#include <cstdlib>
#include <map>

using namespace gdp;

namespace {

/// Character-cursor over one line with convenience matchers.
class LineCursor {
public:
  explicit LineCursor(const std::string &Line) : S(Line) {}

  /// 0-based character offset into the line (for error columns).
  size_t position() const { return Pos; }

  void skipSpace() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= S.size();
  }

  /// Consumes the literal \p Lit (after whitespace); returns false if it
  /// does not match.
  bool eat(const char *Lit) {
    skipSpace();
    size_t Len = std::string(Lit).size();
    if (S.compare(Pos, Len, Lit) != 0)
      return false;
    Pos += Len;
    return true;
  }

  /// Peeks whether the literal follows.
  bool peek(const char *Lit) {
    skipSpace();
    return S.compare(Pos, std::string(Lit).size(), Lit) == 0;
  }

  /// Parses a (possibly signed) integer.
  bool parseInt(int64_t &Out) {
    skipSpace();
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    size_t DigitsStart = Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos == DigitsStart) {
      Pos = Start;
      return false;
    }
    Out = std::stoll(S.substr(Start, Pos - Start));
    return true;
  }

  /// Parses a floating-point literal (also accepts plain integers).
  bool parseDouble(double &Out) {
    skipSpace();
    const char *Begin = S.c_str() + Pos;
    char *End = nullptr;
    double V = std::strtod(Begin, &End);
    if (End == Begin)
      return false;
    Out = V;
    Pos += static_cast<size_t>(End - Begin);
    return true;
  }

  /// Parses an identifier [A-Za-z0-9_.]+.
  bool parseIdent(std::string &Out) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < S.size() &&
           (std::isalnum(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '_' || S[Pos] == '.'))
      ++Pos;
    if (Pos == Start)
      return false;
    Out = S.substr(Start, Pos - Start);
    return true;
  }

  /// Parses "rN" into N.
  bool parseReg(int &Out) {
    skipSpace();
    if (Pos >= S.size() || S[Pos] != 'r')
      return false;
    size_t Save = Pos++;
    int64_t V;
    if (!parseInt(V) || V < 0) {
      Pos = Save;
      return false;
    }
    Out = static_cast<int>(V);
    return true;
  }

  /// Parses a prefixed index like "bb3", "f2", "obj7".
  bool parsePrefixed(const char *Prefix, int64_t &Out) {
    skipSpace();
    size_t Save = Pos;
    if (!eat(Prefix) || !parseInt(Out) || Out < 0) {
      Pos = Save;
      return false;
    }
    return true;
  }

  LineCursor(const LineCursor &) = default;
  LineCursor &operator=(const LineCursor &Other) {
    assert(&S == &Other.S && "cursors must share the line");
    Pos = Other.Pos;
    return *this;
  }

private:
  const std::string &S;
  size_t Pos = 0;
};

/// Reverse mnemonic → opcode table.
const std::map<std::string, Opcode> &mnemonics() {
  static const std::map<std::string, Opcode> Table = [] {
    std::map<std::string, Opcode> M;
    for (int I = 0; I <= static_cast<int>(Opcode::ICMove); ++I)
      M[opcodeName(static_cast<Opcode>(I))] = static_cast<Opcode>(I);
    return M;
  }();
  return Table;
}

/// Parser state across lines.
class Parser {
public:
  ParseResult run(const std::string &Text);

private:
  bool fail(const std::string &Msg) {
    ErrLine = LineNo;
    ErrCol = Cur ? static_cast<unsigned>(Cur->position()) + 1 : 1;
    Error = formatStr("line %u:%u: %s", ErrLine, ErrCol, Msg.c_str());
    D = support::errorDiag(support::StatusCode::ParseError, "parser", Msg);
    D.with("line", static_cast<uint64_t>(ErrLine))
        .with("column", static_cast<uint64_t>(ErrCol));
    if (F) {
      Error += formatStr(" (in %s", F->getName().c_str());
      D.with("function", F->getName());
      if (BB) {
        Error += formatStr("/bb%d", BB->getId());
        D.with("block", static_cast<int64_t>(BB->getId()));
      }
      Error += ")";
    }
    return false;
  }

  bool parseLine(const std::string &Line);
  bool parseStatement(LineCursor &C);
  bool parseObject(LineCursor &C);
  bool parseInit(LineCursor &C);
  bool parseFunc(LineCursor &C);
  bool parseBlock(LineCursor &C);
  bool parseOperation(LineCursor &C);
  bool parseMemRef(LineCursor &C, int &AddrReg, int64_t &Offset);
  void ensureReg(int Reg);

  std::unique_ptr<Program> P;
  Function *F = nullptr;
  BasicBlock *BB = nullptr;
  int LastObject = -1;
  unsigned LineNo = 0;
  const LineCursor *Cur = nullptr; ///< Cursor of the line being parsed.
  unsigned ErrLine = 0, ErrCol = 0;
  std::string Error;
  support::Diag D;
};

void Parser::ensureReg(int Reg) {
  while (F->getNumVRegs() <= static_cast<unsigned>(Reg))
    F->makeVReg();
}

bool Parser::parseMemRef(LineCursor &C, int &AddrReg, int64_t &Offset) {
  if (!C.eat("["))
    return fail("expected '['");
  if (!C.parseReg(AddrReg))
    return fail("expected address register");
  if (!C.parseInt(Offset))
    return fail("expected signed element offset");
  if (!C.eat("]"))
    return fail("expected ']'");
  return true;
}

bool Parser::parseObject(LineCursor &C) {
  int64_t Id;
  if (!C.parsePrefixed("obj", Id))
    return fail("expected object id");
  std::string Name;
  if (!C.parseIdent(Name) || !C.eat(":"))
    return fail("expected object name followed by ':'");
  bool Global = C.eat("global,");
  if (!Global && !C.eat("heap-site,"))
    return fail("expected 'global,' or 'heap-site,'");
  int64_t Elems, ElemBytes, Total;
  if (!C.parseInt(Elems) || !C.eat("elems x") || !C.parseInt(ElemBytes) ||
      !C.eat("bytes (") || !C.parseInt(Total) || !C.eat("bytes)"))
    return fail("malformed object size clause");
  if (static_cast<unsigned>(Id) != P->getNumObjects())
    return fail("object ids must be dense and in order");
  int NewId = Global ? P->addGlobal(Name, static_cast<uint64_t>(Elems),
                                    static_cast<uint64_t>(ElemBytes))
                     : P->addHeapSite(Name, static_cast<uint64_t>(ElemBytes));
  LastObject = NewId;
  if (!Global && Total > 0)
    P->getObject(NewId).setProfiledBytes(static_cast<uint64_t>(Total));
  return true;
}

bool Parser::parseInit(LineCursor &C) {
  if (LastObject < 0)
    return fail("'init' without a preceding object");
  if (!C.eat("["))
    return fail("expected '['");
  std::vector<int64_t> Values;
  if (!C.peek("]")) {
    for (;;) {
      int64_t V;
      if (!C.parseInt(V))
        return fail("expected integer in init list");
      Values.push_back(V);
      if (!C.eat(","))
        break;
    }
  }
  if (!C.eat("]"))
    return fail("expected ']' closing init list");
  P->getObject(LastObject).setInit(std::move(Values));
  return true;
}

bool Parser::parseFunc(LineCursor &C) {
  int64_t Id;
  if (!C.parsePrefixed("f", Id))
    return fail("expected function id");
  std::string Name;
  if (!C.parseIdent(Name))
    return fail("expected function name");
  if (!C.eat("("))
    return fail("expected '('");
  unsigned NumParams = 0;
  if (!C.peek(")")) {
    for (;;) {
      int Reg;
      if (!C.parseReg(Reg))
        return fail("expected parameter register");
      ++NumParams;
      if (!C.eat(","))
        break;
    }
  }
  if (!C.eat(")"))
    return fail("expected ')'");
  if (static_cast<unsigned>(Id) != P->getNumFunctions())
    return fail("function ids must be dense and in order");
  F = P->makeFunction(Name, NumParams);
  BB = nullptr;
  return true;
}

bool Parser::parseBlock(LineCursor &C) {
  if (!F)
    return fail("block outside a function");
  int64_t Id;
  if (!C.parsePrefixed("bb", Id))
    return fail("expected block id");
  if (!C.eat("("))
    return fail("expected '('");
  std::string Label;
  C.parseIdent(Label); // Optional label.
  if (!C.eat("):"))
    return fail("expected '):'");
  if (static_cast<unsigned>(Id) != F->getNumBlocks())
    return fail("block ids must be dense and in order");
  BB = F->makeBlock(Label);
  return true;
}

bool Parser::parseOperation(LineCursor &C) {
  if (!BB)
    return fail("operation outside a block");

  // Optional destination: "rD = ".
  int Dest = -1;
  {
    LineCursor Probe = C;
    int Reg;
    if (Probe.parseReg(Reg) && Probe.eat("=")) {
      Dest = Reg;
      C = Probe;
    }
  }

  std::string Mnemonic;
  if (!C.parseIdent(Mnemonic))
    return fail("expected opcode mnemonic");
  auto It = mnemonics().find(Mnemonic);
  if (It == mnemonics().end())
    return fail("unknown opcode '" + Mnemonic + "'");
  Opcode Op = It->second;

  auto NewOp = std::make_unique<Operation>(Op, F->makeOpId());
  Operation *O = NewOp.get();
  if (Dest >= 0) {
    ensureReg(Dest);
    O->setDest(Dest);
  }

  auto ParseSrcList = [&](int Expected) {
    int Count = 0;
    while (Expected < 0 || Count < Expected) {
      int Reg;
      if (!C.parseReg(Reg)) {
        if (Expected < 0 && Count == 0)
          return true; // Variadic with zero operands.
        if (Expected < 0)
          return true;
        return fail("expected source register");
      }
      ensureReg(Reg);
      O->addSrc(Reg);
      ++Count;
      if (!C.eat(","))
        break;
    }
    return Expected < 0 || Count == Expected
               ? true
               : fail("wrong operand count");
  };

  switch (Op) {
  case Opcode::MovI: {
    int64_t V;
    if (!C.parseInt(V))
      return fail("expected integer immediate");
    O->setImm(V);
    break;
  }
  case Opcode::MovF: {
    double V;
    if (!C.parseDouble(V))
      return fail("expected float immediate");
    O->setFImm(V);
    break;
  }
  case Opcode::AddrOf: {
    int64_t Obj;
    if (!C.parsePrefixed("obj", Obj))
      return fail("expected object reference");
    O->setImm(Obj);
    break;
  }
  case Opcode::Load: {
    int Addr;
    int64_t Off;
    if (!parseMemRef(C, Addr, Off))
      return false;
    ensureReg(Addr);
    O->addSrc(Addr);
    O->setImm(Off);
    break;
  }
  case Opcode::Store: {
    int Val;
    if (!C.parseReg(Val) || !C.eat(","))
      return fail("expected value register and ','");
    int Addr;
    int64_t Off;
    if (!parseMemRef(C, Addr, Off))
      return false;
    ensureReg(Val);
    ensureReg(Addr);
    O->addSrc(Val);
    O->addSrc(Addr);
    O->setImm(Off);
    break;
  }
  case Opcode::Malloc: {
    int Size;
    if (!C.parseReg(Size))
      return fail("expected size register");
    ensureReg(Size);
    O->addSrc(Size);
    int64_t Site;
    if (!C.eat("(site") || !C.parseInt(Site) || !C.eat(")"))
      return fail("expected '(site N)'");
    O->setMallocSite(static_cast<int>(Site));
    break;
  }
  case Opcode::Br: {
    int64_t T;
    if (!C.parsePrefixed("bb", T))
      return fail("expected branch target");
    O->setTargets(static_cast<int>(T));
    break;
  }
  case Opcode::BrCond: {
    int Cond;
    if (!C.parseReg(Cond) || !C.eat(","))
      return fail("expected condition register");
    ensureReg(Cond);
    O->addSrc(Cond);
    int64_t T0, T1;
    if (!C.parsePrefixed("bb", T0) || !C.eat(",") ||
        !C.parsePrefixed("bb", T1))
      return fail("expected two branch targets");
    O->setTargets(static_cast<int>(T0), static_cast<int>(T1));
    break;
  }
  case Opcode::Call: {
    int64_t Callee;
    if (!C.parsePrefixed("f", Callee))
      return fail("expected callee reference");
    O->setCallee(static_cast<int>(Callee));
    if (!C.eat("("))
      return fail("expected '('");
    if (!C.peek(")") && !ParseSrcList(-1))
      return false;
    if (!C.eat(")"))
      return fail("expected ')'");
    break;
  }
  case Opcode::Ret:
    if (!C.atEnd()) {
      int Reg;
      if (C.parseReg(Reg)) {
        ensureReg(Reg);
        O->addSrc(Reg);
      }
    }
    break;
  default:
    if (!ParseSrcList(opcodeNumSrcs(Op)))
      return false;
    break;
  }

  BB->append(std::move(NewOp));
  return true;
}

bool Parser::parseLine(const std::string &Raw) {
  // Strip the " ; ..." comment tail.
  std::string Line = Raw;
  size_t Semi = Line.find(" ;");
  if (Semi != std::string::npos)
    Line = Line.substr(0, Semi);

  LineCursor C(Line);
  Cur = &C; // For error columns; cleared before C goes out of scope.
  bool Ok = parseStatement(C);
  Cur = nullptr;
  return Ok;
}

bool Parser::parseStatement(LineCursor &C) {
  if (C.atEnd())
    return true;

  if (C.eat("program ")) {
    std::string Name;
    C.parseIdent(Name);
    P = std::make_unique<Program>(Name);
    return true;
  }
  if (!P)
    return fail("expected 'program NAME' first");
  if (C.peek("obj"))
    return parseObject(C);
  if (C.eat("init"))
    return parseInit(C);
  if (C.eat("func"))
    return parseFunc(C);
  if (C.peek("bb"))
    return parseBlock(C);
  if (C.eat("entry")) {
    int64_t Id;
    if (!C.parsePrefixed("f", Id))
      return fail("expected entry function reference");
    P->setEntry(static_cast<int>(Id));
    return true;
  }
  return parseOperation(C);
}

ParseResult Parser::run(const std::string &Text) {
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    ++LineNo;
    std::string Line = Text.substr(Pos, End - Pos);
    if (!parseLine(Line)) {
      ParseResult R;
      R.Error = Error;
      R.D = D;
      R.Line = ErrLine;
      R.Column = ErrCol;
      return R;
    }
    Pos = End + 1;
  }
  ParseResult R;
  if (!P) {
    R.Error = "empty input: expected 'program NAME'";
    R.D = support::errorDiag(support::StatusCode::ParseError, "parser",
                             R.Error);
    return R;
  }
  R.P = std::move(P);
  return R;
}

} // namespace

ParseResult gdp::parseProgram(const std::string &Text) {
  Parser Ps;
  return Ps.run(Text);
}
