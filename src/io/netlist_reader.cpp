#include "io/netlist_reader.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

namespace dco3d {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw StatusError(Status::invalid_argument(
      "line " + std::to_string(line) + ": " + what));
}

[[noreturn]] void truncated(const std::string& what) {
  throw StatusError(Status::data_loss("unexpected end of file: " + what));
}

/// Widest Verilog bus the reader bit-blasts (one net per bit).
constexpr std::int64_t kMaxBusWidth = 1 << 16;

/// Most bits the reader bit-blasts over all buses of one module (four
/// full-width buses), so the bus nets are bounded by this rather than by the
/// file size.
constexpr std::int64_t kMaxModuleBusBits = 4 * kMaxBusWidth;

/// Longest identifier the reader accepts (IEEE 1364 lets a tool cap
/// identifiers at no fewer than 1024 characters).
constexpr std::size_t kMaxIdentifierLength = 1024;

/// A token of decimal digits that fits an int; anything else (a based
/// literal, or a value past INT_MAX) is a line-numbered invalid_argument.
int decimal_int(const std::string& text, std::size_t line,
                const std::string& what) {
  std::int64_t v = 0;
  for (const char c : text) {
    v = v * 10 + (c - '0');
    if (c < '0' || c > '9' || v > std::numeric_limits<int>::max())
      fail(line, what + " '" + text + "' is not a decimal integer below 2^31");
  }
  return static_cast<int>(v);
}

// ---------------------------------------------------------------------------
// Master mapping (shared by both readers; policy in docs/formats.md).

struct MasterTable {
  Library* lib = nullptr;
  struct Entry {
    CellTypeId type = -1;
    std::string rule;
    std::size_t instances = 0;
  };
  std::map<std::string, Entry> entries;

  // Ad-hoc types created for inferred macros / pads, shared per master.
  CellTypeId pad_type(const std::string& name, double w = 0.0, double h = 0.0) {
    CellType t;
    t.name = name;
    t.function = CellFunction::kIoPad;
    t.num_inputs = 1;
    t.width = w;
    t.height = h;
    t.input_cap = 2.0;
    t.drive_res = 2.0;
    return lib->add_type(t);
  }
  CellTypeId macro_type(const std::string& name, double w = 5.0, double h = 5.0) {
    CellType t;
    t.name = name;
    t.function = CellFunction::kMacro;
    t.num_inputs = 4;
    t.width = w;
    t.height = h;
    t.input_cap = 5.0;
    t.drive_res = 1.0;
    t.intrinsic_delay = 80.0;
    t.leakage = 500.0;
    t.internal_energy = 15.0;
    return lib->add_type(t);
  }

  /// Resolve a Verilog master name. `pin_count` is the instance's connection
  /// count, used only by the last-resort rule; `line` locates errors.
  CellTypeId resolve(const std::string& master, int pin_count,
                     std::size_t line) {
    auto it = entries.find(master);
    if (it != entries.end()) {
      ++it->second.instances;
      return it->second.type;
    }
    Entry e = infer(master, pin_count, line);
    e.instances = 1;
    entries.emplace(master, e);
    return e.type;
  }

  void fill_report(ImportReport& rep) const {
    for (const auto& [master, e] : entries)
      rep.mappings.push_back(
          {master, std::string(lib->type(e.type).name), e.rule, e.instances});
  }

 private:
  Entry infer(const std::string& master, int pin_count, std::size_t line) {
    // 1. Exact library type name.
    for (std::size_t i = 0; i < lib->size(); ++i)
      if (lib->type(static_cast<CellTypeId>(i)).name == master)
        return {static_cast<CellTypeId>(i), "exact", 0};

    std::string up(master);
    std::transform(up.begin(), up.end(), up.begin(),
                   [](unsigned char c) { return std::toupper(c); });

    // 2. Function inference by substring. Order matters: composite names
    //    first (XNOR before NOR before OR, NAND before AND).
    auto has = [&](const char* s) { return up.find(s) != std::string::npos; };
    CellFunction f;
    bool matched = true;
    if (has("SDFF") || has("DFF") || has("LATCH") || has("FF") || has("REG"))
      f = CellFunction::kDff;
    else if (has("XNOR") || has("XOR"))
      f = CellFunction::kXor2;
    else if (has("NAND"))
      f = CellFunction::kNand2;
    else if (has("NOR"))
      f = CellFunction::kNor2;
    else if (has("AOI") || has("OAI"))
      f = CellFunction::kAoi21;
    else if (has("MUX"))
      f = CellFunction::kMux2;
    else if (has("AND"))
      f = CellFunction::kAnd2;
    else if (has("INV") || has("NOT"))
      f = CellFunction::kInv;
    else if (has("BUF") || has("DLY") || has("DEL"))
      f = CellFunction::kBuf;
    else if (has("OR"))
      f = CellFunction::kOr2;
    // TSMC-style short aliases, after the spelled-out names so "AND2"
    // ("ND2" substring) and "NOR2" ("NR2") resolve to their own branch.
    else if (has("AN2") || has("AN3") || has("AN4"))
      f = CellFunction::kAnd2;
    else if (has("ND2") || has("ND3") || has("ND4"))
      f = CellFunction::kNand2;
    else if (has("NR2") || has("NR3") || has("NR4"))
      f = CellFunction::kNor2;
    else if (has("MX"))
      f = CellFunction::kMux2;
    else if (has("RAM") || has("ROM") || has("MACRO") || has("BLOCK"))
      return {macro_type(master), "function", 0};
    else if (has("PAD") || has("IOB") || has("PORT"))
      return {pad_type(master), "function", 0};
    else
      matched = false;

    if (matched) {
      // Drive strength from a trailing _X<k> / X<k> / _<k> suffix.
      int drive = 0;
      std::size_t i = up.size();
      while (i > 0 && std::isdigit(static_cast<unsigned char>(up[i - 1]))) --i;
      if (i < up.size() && i > 0 && (up[i - 1] == 'X' || up[i - 1] == '_'))
        drive = decimal_int(up.substr(i), line,
                            "drive strength of master '" + master + "'");
      CellTypeId id = drive > 0 ? lib->find(f, drive) : -1;
      if (id < 0) id = lib->smallest(f);
      return {id, "function", 0};
    }

    // 3. Last resort: connection pin count (1 output + N-1 inputs).
    CellFunction g = pin_count <= 2   ? CellFunction::kInv
                     : pin_count == 3 ? CellFunction::kNand2
                                      : CellFunction::kMux2;
    return {lib->smallest(g), "pin-count", 0};
  }
};

// ---------------------------------------------------------------------------
// Pending-net accumulation shared by both readers: pins gather per net in
// encounter order; at emit time the first driver is rotated to the front
// (consumers treat pins[0] as a representative) and driverless nets get a
// synthesized tie cell so the result passes lint.

struct PendingNet {
  std::string name;
  std::vector<Pin> pins;  // net field unset; filled by add_net_pins
  bool is_clock = false;  // Verilog only: feeds a CK/CLK/CP pin of a DFF
};

void emit_nets(Netlist& nl, std::vector<PendingNet>& nets, ImportReport& rep,
               CellTypeId tie_type) {
  for (PendingNet& pn : nets) {
    auto drv = std::find_if(pn.pins.begin(), pn.pins.end(), [](const Pin& p) {
      return p.dir == PinDir::kDriver;
    });
    if (drv == pn.pins.end()) {
      // Undriven net: synthesize a fixed tie cell as the driver (policy in
      // docs/formats.md §unconnected-pin policy).
      ++rep.undriven_nets;
      const CellId tie =
          nl.add_cell("__tie_" + pn.name, tie_type, /*fixed=*/true);
      pn.pins.insert(pn.pins.begin(), Pin{tie, -1, Point{}, PinDir::kDriver});
    } else {
      std::rotate(pn.pins.begin(), drv, drv + 1);
    }
    nl.add_net_pins(pn.name, std::move(pn.pins), /*weight=*/1.0, pn.is_clock);
  }
}

void finish_report(const Netlist& nl, ImportReport& rep) {
  rep.cells = nl.num_cells();
  rep.nets = nl.num_nets();
  rep.pins = nl.num_pins();
  rep.ios = nl.num_ios();
}

/// Pin offset inside the mapped cell: output at the right edge, inputs at
/// the left, both at mid-height (the generator's convention).
Point pin_offset(const CellType& t, PinDir dir) {
  return dir == PinDir::kDriver ? Point{t.width, t.height * 0.5}
                                : Point{0.0, t.height * 0.5};
}

// ---------------------------------------------------------------------------
// Structural-Verilog subset.

struct Token {
  enum Kind { kIdent, kNumber, kPunct, kEof } kind = kEof;
  std::string text;
  std::size_t line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::istream& is) {
    std::ostringstream ss;
    ss << is.rdbuf();
    src_ = ss.str();
  }

  Token peek() {
    if (!has_peek_) {
      peek_ = lex();
      has_peek_ = true;
    }
    return peek_;
  }
  Token next() {
    Token t = peek();
    has_peek_ = false;
    return t;
  }
  std::size_t line() const { return line_; }

 private:
  Token lex() {
    skip();
    if (pos_ >= src_.size()) return {Token::kEof, "", line_};
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '\\') {
      std::size_t b = pos_;
      if (c == '\\') {  // escaped identifier: up to whitespace
        ++pos_;
        while (pos_ < src_.size() &&
               !std::isspace(static_cast<unsigned char>(src_[pos_])))
          ++pos_;
        return ident(b + 1);
      }
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_' || src_[pos_] == '$'))
        ++pos_;
      return ident(b);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Plain integer or based literal (8'hFF, 1'b0, ...).
      std::size_t b = pos_;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_])))
        ++pos_;
      if (pos_ < src_.size() && src_[pos_] == '\'') {
        ++pos_;
        while (pos_ < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
                src_[pos_] == 'x' || src_[pos_] == 'z' || src_[pos_] == '_'))
          ++pos_;
      }
      return {Token::kNumber, src_.substr(b, pos_ - b), line_};
    }
    ++pos_;
    return {Token::kPunct, std::string(1, c), line_};
  }

  /// The identifier src_[b, pos_), refused past kMaxIdentifierLength.
  Token ident(std::size_t b) {
    const std::size_t len = pos_ - b;
    if (len > kMaxIdentifierLength)
      fail(line_, "identifier '" + src_.substr(b, 32) + "...' is " +
                      std::to_string(len) + " characters long; at most " +
                      std::to_string(kMaxIdentifierLength) + " are supported");
    return {Token::kIdent, src_.substr(b, len), line_};
  }

  void skip() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          if (src_[pos_] == '\n') ++line_;
          ++pos_;
        }
        if (pos_ + 1 >= src_.size()) truncated("unterminated block comment");
        pos_ += 2;
      } else {
        return;
      }
    }
  }

  std::string src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Token peek_;
  bool has_peek_ = false;
};

class VerilogParser {
 public:
  VerilogParser(std::istream& is, ImportReport& rep) : lex_(is), rep_(rep) {
    nl_ = Netlist(Library::make_default());
    masters_.lib = &nl_.library();
  }

  Netlist run() {
    expect_ident("module");
    rep_.top = expect(Token::kIdent, "module name").text;
    parse_port_list();
    expect_punct(";");

    for (;;) {
      Token t = lex_.peek();
      if (t.kind == Token::kEof) truncated("missing 'endmodule'");
      if (t.kind != Token::kIdent)
        fail(t.line, "expected declaration or instance, got '" + t.text + "'");
      if (t.text == "endmodule") {
        lex_.next();
        break;
      }
      if (t.text == "input" || t.text == "output" || t.text == "inout")
        parse_port_decl();
      else if (t.text == "wire")
        parse_wire_decl();
      else
        parse_instance();
    }

    build();
    masters_.fill_report(rep_);
    finish_report(nl_, rep_);
    nl_.freeze();
    return std::move(nl_);
  }

 private:
  struct Decl {
    int width = 0;  // 0 = scalar; >0 = bus [width-1:0] after normalization
    int lsb = 0;
    std::int64_t msb() const { return std::int64_t{lsb} + width - 1; }
  };

  // --- token helpers ---
  Token expect(Token::Kind k, const char* what) {
    Token t = lex_.next();
    if (t.kind == Token::kEof) truncated(std::string("expected ") + what);
    if (t.kind != k)
      fail(t.line, "expected " + std::string(what) + ", got '" + t.text + "'");
    return t;
  }
  void expect_punct(const char* p) {
    Token t = lex_.next();
    if (t.kind == Token::kEof)
      truncated(std::string("expected '") + p + "'");
    if (t.kind != Token::kPunct || t.text != p)
      fail(t.line, "expected '" + std::string(p) + "', got '" + t.text + "'");
  }
  void expect_ident(const char* id) {
    Token t = lex_.next();
    if (t.kind == Token::kEof)
      truncated(std::string("expected '") + id + "'");
    if (t.kind != Token::kIdent || t.text != id)
      fail(t.line, "expected '" + std::string(id) + "', got '" + t.text + "'");
  }
  bool accept_punct(const char* p) {
    Token t = lex_.peek();
    if (t.kind == Token::kPunct && t.text == p) {
      lex_.next();
      return true;
    }
    return false;
  }

  /// "[msb:lsb]" -> (width, lsb); absent -> scalar.
  Decl parse_range() {
    if (!accept_punct("[")) return {};
    const Token msb = expect(Token::kNumber, "bus msb");
    expect_punct(":");
    const Token lsb = expect(Token::kNumber, "bus lsb");
    expect_punct("]");
    const int hi = decimal_int(msb.text, msb.line, "bus msb");
    const int lo = decimal_int(lsb.text, lsb.line, "bus lsb");
    if (lo > hi)
      fail(msb.line, "descending bus ranges are not supported ([" + msb.text +
                         ":" + lsb.text + "])");
    const std::int64_t width = std::int64_t{hi} - lo + 1;
    if (width > kMaxBusWidth)
      fail(msb.line, "bus [" + msb.text + ":" + lsb.text + "] is " +
                         std::to_string(width) + " bits wide; at most " +
                         std::to_string(kMaxBusWidth) + " are supported");
    return {static_cast<int>(width), lo};
  }

  // --- declarations ---
  void declare(const std::string& name, Decl d, std::size_t line) {
    if (decls_.count(name))
      fail(line, "wire '" + name + "' declared twice");
    decls_[name] = d;
    if (d.width == 0) {
      net_of_bit_[name] = new_net(name);
    } else {
      const std::int64_t total =
          static_cast<std::int64_t>(rep_.bus_bits) + d.width;
      if (total > kMaxModuleBusBits)
        fail(line, "bus '" + name + "' brings the module to " +
                       std::to_string(total) + " bus bits; at most " +
                       std::to_string(kMaxModuleBusBits) + " are supported");
      rep_.bus_bits += static_cast<std::size_t>(d.width);
      for (std::int64_t b = d.lsb; b <= d.msb(); ++b) {
        const std::string bit = name + "[" + std::to_string(b) + "]";
        net_of_bit_[bit] = new_net(bit);
      }
    }
  }

  std::size_t new_net(const std::string& name) {
    nets_.push_back({name, {}});
    return nets_.size() - 1;
  }

  /// Port list: plain names, or ANSI-style inline declarations.
  void parse_port_list() {
    if (!accept_punct("(")) return;
    if (accept_punct(")")) return;
    PinDir dir = PinDir::kSink;  // set per ANSI direction keyword
    bool have_dir = false;
    Decl range;
    for (;;) {
      Token t = lex_.next();
      if (t.kind == Token::kEof) truncated("unterminated port list");
      if (t.kind == Token::kIdent &&
          (t.text == "input" || t.text == "output" || t.text == "inout")) {
        // ANSI header: direction [range] name, ...
        dir = t.text == "output" ? PinDir::kSink : PinDir::kDriver;
        have_dir = true;
        Token w = lex_.peek();
        if (w.kind == Token::kIdent && w.text == "wire") lex_.next();
        range = parse_range();
        continue;
      }
      if (t.kind != Token::kIdent)
        fail(t.line, "expected port name, got '" + t.text + "'");
      if (have_dir) {
        declare(t.text, range, t.line);
        make_port(t.text, range, dir, t.line);
        ansi_ports_.insert(t.text);
      } else {
        header_ports_.push_back(t.text);
      }
      if (accept_punct(")")) return;
      expect_punct(",");
    }
  }

  /// Non-ANSI "input [7:0] a, b;" body declaration.
  void parse_port_decl() {
    const Token kw = lex_.next();  // input | output | inout
    // An input port *drives* its net from outside; an output port sinks it.
    const PinDir dir = kw.text == "output" ? PinDir::kSink : PinDir::kDriver;
    const Decl range = parse_range();
    for (;;) {
      const Token name = expect(Token::kIdent, "port name");
      if (!ansi_ports_.count(name.text)) {
        declare(name.text, range, name.line);
        make_port(name.text, range, dir, name.line);
      }
      if (accept_punct(";")) return;
      expect_punct(",");
    }
  }

  void parse_wire_decl() {
    lex_.next();  // wire
    const Decl range = parse_range();
    for (;;) {
      const Token name = expect(Token::kIdent, "wire name");
      // Ports already declared their nets; "wire x;" after "input x;" is
      // legal Verilog and a no-op here.
      if (!decls_.count(name.text)) declare(name.text, range, name.line);
      if (accept_punct(";")) return;
      expect_punct(",");
    }
  }

  /// One IO pad cell per port bit; the pad drives input-port nets and sinks
  /// output-port nets.
  void make_port(const std::string& name, Decl d, PinDir dir, std::size_t line) {
    if (pad_type_ < 0) pad_type_ = masters_.pad_type("IO_PAD");
    auto bit_port = [&](const std::string& bit) {
      const CellId pad = nl_.add_cell(bit, pad_type_, /*fixed=*/true);
      const auto it = net_of_bit_.find(bit);
      if (it == net_of_bit_.end())
        fail(line, "internal: port bit '" + bit + "' has no net");
      nets_[it->second].pins.push_back(Pin{pad, -1, Point{}, dir});
    };
    if (d.width == 0) {
      bit_port(name);
    } else {
      for (std::int64_t b = d.lsb; b <= d.msb(); ++b)
        bit_port(name + "[" + std::to_string(b) + "]");
    }
  }

  // --- instances ---
  void parse_instance() {
    const Token master = expect(Token::kIdent, "cell master");
    const Token inst = expect(Token::kIdent, "instance name");
    expect_punct("(");

    struct Conn {
      std::string pin;
      std::size_t net = SIZE_MAX;  // SIZE_MAX = dropped (const/unconnected)
      std::size_t line = 0;
    };
    std::vector<Conn> conns;
    if (!accept_punct(")")) {
      for (;;) {
        expect_punct(".");
        const Token pin = expect(Token::kIdent, "pin name");
        expect_punct("(");
        Conn c{pin.text, SIZE_MAX, pin.line};
        if (!accept_punct(")")) {
          c.net = parse_net_ref();
          expect_punct(")");
        } else {
          ++rep_.unconnected_pins;  // explicit .PIN()
        }
        conns.push_back(c);
        if (accept_punct(")")) break;
        expect_punct(",");
      }
    }
    expect_punct(";");

    const CellTypeId type =
        masters_.resolve(master.text, static_cast<int>(conns.size()),
                         master.line);
    const CellType& t = nl_.library().type(type);
    const bool fixed = t.function == CellFunction::kMacro ||
                       t.function == CellFunction::kIoPad;
    const CellId cell = nl_.add_cell(inst.text, type, fixed);
    for (const Conn& c : conns) {
      if (c.net == SIZE_MAX) continue;
      const PinDir dir = pin_dir(c.pin);
      nets_[c.net].pins.push_back(Pin{cell, -1, pin_offset(t, dir), dir});
      // A net feeding the clock pin of a sequential cell is a clock net.
      if (t.function == CellFunction::kDff &&
          (c.pin == "CK" || c.pin == "CLK" || c.pin == "CP"))
        nets_[c.net].is_clock = true;
    }
  }

  /// Output pin names start with Y/Q/Z (or are O/OUT); everything else is an
  /// input. Documented in docs/formats.md.
  static PinDir pin_dir(const std::string& pin) {
    const char c = static_cast<char>(
        std::toupper(static_cast<unsigned char>(pin.empty() ? 'A' : pin[0])));
    if (c == 'Y' || c == 'Q' || c == 'Z') return PinDir::kDriver;
    std::string up(pin);
    std::transform(up.begin(), up.end(), up.begin(), [](unsigned char ch) {
      return std::toupper(ch);
    });
    return (up == "O" || up == "OUT" || up == "OUTPUT") ? PinDir::kDriver
                                                        : PinDir::kSink;
  }

  /// A connection expression: wire, bus bit, or constant literal. Returns
  /// the pending-net index, or SIZE_MAX for a dropped constant pin.
  std::size_t parse_net_ref() {
    Token t = lex_.next();
    if (t.kind == Token::kEof) truncated("unterminated connection");
    if (t.kind == Token::kNumber) {
      ++rep_.constant_pins;  // 1'b0 / 1'b1 / ... : dropped by policy
      return SIZE_MAX;
    }
    if (t.kind != Token::kIdent)
      fail(t.line, "unsupported connection expression '" + t.text +
                       "' (named wire, bus bit, or literal expected)");
    const auto decl = decls_.find(t.text);
    if (decl == decls_.end())
      fail(t.line, "undeclared wire '" + t.text + "'");
    if (accept_punct("[")) {
      const Token idx = expect(Token::kNumber, "bit index");
      expect_punct("]");
      if (decl->second.width == 0)
        fail(idx.line, "width mismatch: scalar wire '" + t.text +
                           "' used with a bit-select");
      const int b = decimal_int(idx.text, idx.line, "bit index");
      if (b < decl->second.lsb || b > decl->second.msb())
        fail(idx.line, "width mismatch: bit " + idx.text + " outside '" +
                           t.text + "[" +
                           std::to_string(decl->second.msb()) + ":" +
                           std::to_string(decl->second.lsb) + "]");
      return net_of_bit_.at(t.text + "[" + std::to_string(b) + "]");
    }
    if (decl->second.width != 0)
      fail(t.line, "width mismatch: bus '" + t.text + "' (" +
                       std::to_string(decl->second.width) +
                       " bits) connected to a 1-bit pin");
    return net_of_bit_.at(t.text);
  }

  // --- final build ---
  void build() {
    for (const std::string& p : header_ports_)
      if (!decls_.count(p))
        throw StatusError(Status::invalid_argument(
            "port '" + p + "' has no input/output declaration"));
    // Drop declared-but-unused wires (no pins) per policy.
    std::vector<PendingNet> used;
    used.reserve(nets_.size());
    for (PendingNet& pn : nets_) {
      if (pn.pins.empty())
        ++rep_.unused_wires;
      else
        used.push_back(std::move(pn));
    }
    if (tie_type_ < 0) tie_type_ = nl_.library().smallest(CellFunction::kBuf);
    emit_nets(nl_, used, rep_, tie_type_);
  }

  Lexer lex_;
  ImportReport& rep_;
  Netlist nl_;
  MasterTable masters_;
  std::unordered_map<std::string, Decl> decls_;
  std::unordered_map<std::string, std::size_t> net_of_bit_;
  std::vector<PendingNet> nets_;
  std::vector<std::string> header_ports_;
  std::set<std::string> ansi_ports_;
  CellTypeId pad_type_ = -1;
  CellTypeId tie_type_ = -1;
};

// ---------------------------------------------------------------------------
// Bookshelf.

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Next content line: comments ('#'), blank lines, and the "UCLA ..."
/// header are skipped.
bool next_line(std::istream& is, std::string& line, std::size_t& lineno) {
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    if (line[b] == '#') continue;
    if (line.compare(b, 4, "UCLA") == 0) continue;
    return true;
  }
  return false;
}

struct BkNode {
  std::string name;
  double w = 0.0, h = 0.0;
  bool terminal = false;
};

Netlist read_bookshelf_impl(const std::string& nodes_path,
                            const std::string& nets_path,
                            const std::string& pl_path, ImportReport& rep,
                            Placement3D* placement_out) {
  rep.source = "bookshelf";
  {
    std::string stem = basename_of(nets_path);
    const std::size_t dot = stem.find_last_of('.');
    rep.top = dot == std::string::npos ? stem : stem.substr(0, dot);
  }

  // --- .nodes ---
  std::ifstream nodes_is(nodes_path);
  if (!nodes_is)
    throw StatusError(Status::not_found("cannot open " + nodes_path));
  std::vector<BkNode> nodes;
  {
    std::string line;
    std::size_t ln = 0;
    while (next_line(nodes_is, line, ln)) {
      std::istringstream ss(line);
      std::string a;
      ss >> a;
      if (a == "NumNodes" || a == "NumTerminals") continue;
      BkNode n;
      n.name = a;
      if (!(ss >> n.w >> n.h))
        fail(ln, nodes_path + ": expected 'name width height'");
      std::string term;
      if (ss >> term) n.terminal = term.rfind("terminal", 0) == 0;
      nodes.push_back(std::move(n));
    }
  }
  if (nodes.empty())
    throw StatusError(
        Status::data_loss(nodes_path + ": no node records found"));

  // Modal height of movable nodes = the row height of the source library;
  // anything at least twice that tall is treated as a macro.
  std::map<double, std::size_t> height_hist;
  for (const BkNode& n : nodes)
    if (!n.terminal) ++height_hist[n.h];
  double modal_h = 0.0;
  std::size_t best = 0;
  for (const auto& [h, c] : height_hist)
    if (c > best) {
      best = c;
      modal_h = h;
    }

  Netlist nl(Library::make_default());
  MasterTable masters;
  masters.lib = &nl.library();

  // Movable nodes map to the nearest-area combinational standard cell so
  // downstream row legalization keeps working (docs/formats.md §bookshelf).
  std::vector<CellTypeId> std_types;
  for (std::size_t i = 0; i < nl.library().size(); ++i) {
    const CellType& t = nl.library().type(static_cast<CellTypeId>(i));
    if (t.function != CellFunction::kMacro &&
        t.function != CellFunction::kIoPad &&
        t.function != CellFunction::kDff)
      std_types.push_back(static_cast<CellTypeId>(i));
  }

  auto dim_key = [](const BkNode& n) {
    std::ostringstream ss;
    ss << n.w << "x" << n.h;
    return ss.str();
  };

  std::unordered_map<std::string, CellId> cell_of;
  cell_of.reserve(nodes.size());
  for (const BkNode& n : nodes) {
    // Terminals and movable nodes of the same dimensions map differently,
    // so the flag is part of the mapping key.
    const std::string master =
        dim_key(n) + (n.terminal ? " (terminal)" : "");
    CellTypeId type;
    auto it = masters.entries.find(master);
    if (it != masters.entries.end()) {
      ++it->second.instances;
      type = it->second.type;
    } else {
      MasterTable::Entry e;
      if (n.terminal) {
        e.type = masters.pad_type("BK_PAD_" + dim_key(n), n.w, n.h);
        e.rule = "terminal";
      } else if (modal_h > 0.0 && n.h >= 2.0 * modal_h) {
        e.type = masters.macro_type("BK_MACRO_" + dim_key(n), n.w, n.h);
        e.rule = "dimensions";
      } else {
        const double area = n.w * n.h;
        // Scale the source node's area into the library's range by the row
        // height ratio, then pick the nearest-area standard cell.
        const double scale =
            modal_h > 0.0 ? nl.library().row_height() / modal_h : 1.0;
        CellTypeId best_t = std_types.front();
        double best_d = 1e300;
        for (CellTypeId cand : std_types) {
          const double d =
              std::abs(nl.library().type(cand).area() - area * scale * scale);
          if (d < best_d) {
            best_d = d;
            best_t = cand;
          }
        }
        e.type = best_t;
        e.rule = "dimensions";
      }
      e.instances = 1;
      type = e.type;
      masters.entries.emplace(master, e);
    }
    const CellType& t = nl.library().type(type);
    const bool fixed = n.terminal || t.function == CellFunction::kMacro;
    cell_of[n.name] = nl.add_cell(n.name, type, fixed);
  }

  // --- .nets ---
  std::ifstream nets_is(nets_path);
  if (!nets_is)
    throw StatusError(Status::not_found("cannot open " + nets_path));
  std::vector<PendingNet> nets;
  {
    std::string line;
    std::size_t ln = 0;
    int pending_pins = 0;
    while (next_line(nets_is, line, ln)) {
      std::istringstream ss(line);
      std::string a;
      ss >> a;
      if (a == "NumNets" || a == "NumPins") continue;
      if (a == "NetDegree") {
        if (pending_pins > 0)
          fail(ln, nets_path + ": previous net short by " +
                       std::to_string(pending_pins) + " pin(s)");
        std::string colon, name;
        int degree = 0;
        if (!(ss >> colon >> degree))
          fail(ln, nets_path + ": malformed NetDegree record");
        if (!(ss >> name)) name = "bk_n" + std::to_string(nets.size());
        nets.push_back({name, {}});
        pending_pins = degree;
        continue;
      }
      // Pin line: "cellname I|O|B [: xoff yoff]"
      if (nets.empty() || pending_pins <= 0)
        fail(ln, nets_path + ": pin record outside a NetDegree block");
      const auto cit = cell_of.find(a);
      if (cit == cell_of.end())
        fail(ln, nets_path + ": pin references unknown node '" + a + "'");
      std::string dir_s;
      ss >> dir_s;
      const PinDir dir = (dir_s == "O") ? PinDir::kDriver : PinDir::kSink;
      const CellType& t = nl.cell_type(cit->second);
      Point off = pin_offset(t, dir);
      std::string colon;
      double x = 0.0, y = 0.0;
      if (ss >> colon >> x >> y) {
        // Bookshelf pin offsets are center-relative; ours are lower-left
        // relative, clamped into the mapped cell's box.
        off.x = std::clamp(t.width * 0.5 + x, 0.0, t.width);
        off.y = std::clamp(t.height * 0.5 + y, 0.0, t.height);
      }
      nets.back().pins.push_back(Pin{cit->second, -1, off, dir});
      --pending_pins;
    }
    if (pending_pins > 0)
      throw StatusError(Status::data_loss(
          nets_path + ": truncated inside the final NetDegree block"));
  }
  emit_nets(nl, nets, rep, nl.library().smallest(CellFunction::kBuf));

  // --- .pl (optional) ---
  if (!pl_path.empty() && placement_out) {
    std::ifstream pl_is(pl_path);
    if (pl_is) {
      Placement3D pl = Placement3D::make(nl.num_cells(), Rect{0, 0, 1, 1});
      Rect box{1e300, 1e300, -1e300, -1e300};
      std::string line;
      std::size_t ln = 0;
      while (next_line(pl_is, line, ln)) {
        std::istringstream ss(line);
        std::string name;
        double x = 0.0, y = 0.0;
        if (!(ss >> name >> x >> y)) continue;
        const auto cit = cell_of.find(name);
        if (cit == cell_of.end())
          fail(ln, pl_path + ": placement for unknown node '" + name + "'");
        const auto ci = static_cast<std::size_t>(cit->second);
        pl.xy[ci] = {x, y};
        const CellType& t = nl.cell_type(cit->second);
        box.xlo = std::min(box.xlo, x);
        box.ylo = std::min(box.ylo, y);
        box.xhi = std::max(box.xhi, x + t.width);
        box.yhi = std::max(box.yhi, y + t.height);
      }
      if (box.xlo <= box.xhi) pl.outline = box;
      *placement_out = std::move(pl);
    }
  }

  masters.fill_report(rep);
  finish_report(nl, rep);
  nl.freeze();
  return nl;
}

std::string sanitize_ident(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s)
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out.insert(out.begin(), 'n');
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.

std::string ImportReport::to_string() const {
  std::ostringstream ss;
  ss << "import (" << source << ") '" << top << "': " << cells << " cells, "
     << nets << " nets, " << pins << " pins, " << ios << " IOs\n";
  if (bus_bits) ss << "  bus bits blasted:   " << bus_bits << '\n';
  if (constant_pins) ss << "  constant pins dropped:    " << constant_pins << '\n';
  if (unconnected_pins) ss << "  unconnected pins dropped: " << unconnected_pins << '\n';
  if (unused_wires) ss << "  unused wires dropped:     " << unused_wires << '\n';
  if (undriven_nets) ss << "  tie drivers synthesized:  " << undriven_nets << '\n';
  if (!mappings.empty()) {
    ss << "  master mapping:\n";
    for (const ImportMapping& m : mappings)
      ss << "    " << m.master << " -> " << m.mapped_to << " (" << m.rule
         << ", " << m.instances << " instance" << (m.instances == 1 ? "" : "s")
         << ")\n";
  }
  return ss.str();
}

Netlist read_verilog(std::istream& is, ImportReport* report) {
  ImportReport local;
  ImportReport& rep = report ? *report : local;
  rep = {};
  rep.source = "verilog";
  VerilogParser parser(is, rep);
  return parser.run();
}

Netlist read_verilog_file(const std::string& path, ImportReport* report) {
  std::ifstream is(path);
  if (!is) throw StatusError(Status::not_found("cannot open " + path));
  return read_verilog(is, report);
}

Netlist read_bookshelf(const std::string& path, ImportReport* report,
                       Placement3D* placement_out) {
  ImportReport local;
  ImportReport& rep = report ? *report : local;
  rep = {};

  std::string nodes, nets, pl;
  if (ends_with(path, ".aux")) {
    std::ifstream aux(path);
    if (!aux) throw StatusError(Status::not_found("cannot open " + path));
    const std::string dir = dirname_of(path);
    std::string tok;
    while (aux >> tok) {
      if (ends_with(tok, ".nodes")) nodes = dir + tok;
      if (ends_with(tok, ".nets")) nets = dir + tok;
      if (ends_with(tok, ".pl")) pl = dir + tok;
    }
    if (nodes.empty() || nets.empty())
      throw StatusError(Status::invalid_argument(
          path + ": aux file names no .nodes/.nets pair"));
  } else {
    const std::size_t dot = path.find_last_of('.');
    const std::string stem =
        dot == std::string::npos ? path : path.substr(0, dot);
    nodes = stem + ".nodes";
    nets = stem + ".nets";
    pl = stem + ".pl";
  }
  return read_bookshelf_impl(nodes, nets, pl, rep, placement_out);
}

void write_verilog(std::ostream& os, const Netlist& netlist,
                   const std::string& top) {
  os << "// structural netlist exported by dco3d (subset: docs/formats.md)\n";
  os << "module " << sanitize_ident(top) << ";\n";

  // One wire per net; names sanitized and made unique.
  std::vector<std::string> wire(netlist.num_nets());
  {
    std::unordered_map<std::string, std::size_t> seen;
    for (std::size_t ni = 0; ni < netlist.num_nets(); ++ni) {
      std::string w =
          sanitize_ident(std::string(netlist.net_name(static_cast<NetId>(ni))));
      auto [it, fresh] = seen.emplace(w, ni);
      if (!fresh) w += "_" + std::to_string(ni);
      seen.emplace(w, ni);
      wire[ni] = std::move(w);
      os << "  wire " << wire[ni] << ";\n";
    }
  }

  // One instance per cell (IO pads included; the reader maps the pad master
  // back to kIoPad). Output pins are named Y/Y<k>, inputs A<k> — the names
  // encode direction for re-import.
  std::unordered_map<std::string, std::size_t> inst_seen;
  for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    std::string inst =
        sanitize_ident(std::string(netlist.cell_name(id)));
    auto [it, fresh] = inst_seen.emplace(inst, ci);
    if (!fresh) inst += "_" + std::to_string(ci);
    inst_seen.emplace(inst, ci);

    os << "  " << sanitize_ident(netlist.cell_type(id).name) << ' ' << inst
       << " (";
    int outs = 0, ins = 0;
    bool first = true;
    for (PinId pid : netlist.cell_pin_ids(id)) {
      const Pin& p = netlist.pin(pid);
      if (!first) os << ", ";
      first = false;
      if (p.dir == PinDir::kDriver) {
        os << ".Y" << (outs ? std::to_string(outs) : "");
        ++outs;
      } else {
        os << ".A" << ins++;
      }
      os << '(' << wire[static_cast<std::size_t>(p.net)] << ')';
    }
    os << ");\n";
  }
  os << "endmodule\n";
  if (!os) throw StatusError(Status::io_error("verilog write failed"));
}

void write_verilog_file(const std::string& path, const Netlist& netlist,
                        const std::string& top) {
  std::ofstream os(path);
  if (!os) throw StatusError(Status::io_error("cannot open " + path));
  write_verilog(os, netlist, top);
}

}  // namespace dco3d
