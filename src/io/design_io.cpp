#include "io/design_io.hpp"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

#include "util/status.hpp"

namespace dco3d {

namespace {

const char* function_name(CellFunction f) {
  switch (f) {
    case CellFunction::kInv: return "inv";
    case CellFunction::kBuf: return "buf";
    case CellFunction::kNand2: return "nand2";
    case CellFunction::kNor2: return "nor2";
    case CellFunction::kAnd2: return "and2";
    case CellFunction::kOr2: return "or2";
    case CellFunction::kXor2: return "xor2";
    case CellFunction::kAoi21: return "aoi21";
    case CellFunction::kMux2: return "mux2";
    case CellFunction::kDff: return "dff";
    case CellFunction::kMacro: return "macro";
    case CellFunction::kIoPad: return "iopad";
  }
  return "inv";
}

CellFunction parse_function(const std::string& s, int line) {
  static const std::map<std::string, CellFunction> kMap = {
      {"inv", CellFunction::kInv},     {"buf", CellFunction::kBuf},
      {"nand2", CellFunction::kNand2}, {"nor2", CellFunction::kNor2},
      {"and2", CellFunction::kAnd2},   {"or2", CellFunction::kOr2},
      {"xor2", CellFunction::kXor2},   {"aoi21", CellFunction::kAoi21},
      {"mux2", CellFunction::kMux2},   {"dff", CellFunction::kDff},
      {"macro", CellFunction::kMacro}, {"iopad", CellFunction::kIoPad}};
  const auto it = kMap.find(s);
  if (it == kMap.end())
    throw StatusError(Status::data_loss("design_io: unknown cell function '" +
                                        s + "' at line " +
                                        std::to_string(line)));
  return it->second;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw StatusError(Status::data_loss("design_io: " + what + " at line " +
                                      std::to_string(line)));
}

}  // namespace

void write_design(std::ostream& os, const Netlist& netlist) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "dco3d-design v1\n";
  const Library& lib = netlist.library();
  for (std::size_t t = 0; t < lib.size(); ++t) {
    const CellType& ct = lib.type(static_cast<CellTypeId>(t));
    os << "libcell " << ct.name << ' ' << function_name(ct.function) << ' '
       << ct.drive << ' ' << ct.num_inputs << ' ' << ct.width << ' '
       << ct.height << ' ' << ct.input_cap << ' ' << ct.drive_res << ' '
       << ct.intrinsic_delay << ' ' << ct.leakage << ' ' << ct.internal_energy
       << '\n';
  }
  for (std::size_t c = 0; c < netlist.num_cells(); ++c) {
    const auto id = static_cast<CellId>(c);
    os << "cell " << netlist.cell_name(id) << ' '
       << lib.type(netlist.cell(id).type).name << ' '
       << (netlist.cell(id).fixed ? 1 : 0) << '\n';
  }
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    const auto ni = static_cast<NetId>(n);
    // Driver first, then sinks in stored order: the on-disk pin order is the
    // add_net order, so write → read round-trips pin-for-pin.
    const Pin& d = netlist.net_driver(ni);
    os << "net " << netlist.net_name(ni) << ' ' << netlist.net_weight(ni) << ' '
       << (netlist.net_is_clock(ni) ? 1 : 0) << ' ' << d.cell << ' '
       << d.offset.x << ' ' << d.offset.y;
    for (const Pin& p : netlist.net_pins(ni)) {
      if (p.dir != PinDir::kSink) continue;
      os << ' ' << p.cell << ' ' << p.offset.x << ' ' << p.offset.y;
    }
    os << '\n';
  }
  if (!os) throw StatusError(Status::io_error("design_io: write failed"));
}

void write_design_file(const std::string& path, const Netlist& netlist) {
  std::ofstream os(path);
  if (!os) throw StatusError(Status::io_error("design_io: cannot open " + path));
  write_design(os, netlist);
}

Netlist read_design(std::istream& is) {
  std::string line;
  int lineno = 0;
  if (!std::getline(is, line) || line.rfind("dco3d-design v1", 0) != 0)
    throw StatusError(
        Status::data_loss("design_io: missing 'dco3d-design v1' header"));
  ++lineno;

  // Library is built from the file, not the default, so round-trips are
  // exact even for designs with ad-hoc macro/pad types.
  Library lib;
  {
    // Start from an empty library: make_default then strip is not possible,
    // so build via add_type on a default-constructed Library.
    lib = Library();
  }
  std::map<std::string, CellTypeId> type_by_name;
  std::vector<std::string> pending;  // cell/net lines, parsed after libcells
  std::vector<std::pair<int, std::string>> cell_lines, net_lines;

  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "libcell") {
      CellType ct;
      std::string fn;
      ss >> ct.name >> fn >> ct.drive >> ct.num_inputs >> ct.width >>
          ct.height >> ct.input_cap >> ct.drive_res >> ct.intrinsic_delay >>
          ct.leakage >> ct.internal_energy;
      if (!ss) fail(lineno, "malformed libcell");
      ct.function = parse_function(fn, lineno);
      const CellTypeId id = lib.add_type(ct);
      if (!type_by_name.emplace(ct.name, id).second)
        fail(lineno, "duplicate libcell '" + ct.name + "'");
    } else if (tag == "cell") {
      cell_lines.emplace_back(lineno, line);
    } else if (tag == "net") {
      net_lines.emplace_back(lineno, line);
    } else {
      fail(lineno, "unknown record '" + tag + "'");
    }
  }

  Netlist netlist(std::move(lib));
  for (const auto& [ln, text] : cell_lines) {
    std::istringstream ss(text);
    std::string tag, name, type_name;
    int fixed = 0;
    ss >> tag >> name >> type_name >> fixed;
    if (!ss) fail(ln, "malformed cell");
    const auto it = type_by_name.find(type_name);
    if (it == type_by_name.end()) fail(ln, "unknown cell type '" + type_name + "'");
    netlist.add_cell(name, it->second, fixed != 0);
  }
  const auto n_cells = static_cast<std::int64_t>(netlist.num_cells());
  for (const auto& [ln, text] : net_lines) {
    std::istringstream ss(text);
    std::string tag;
    Net net;
    int is_clock = 0;
    std::int64_t driver;
    ss >> tag >> net.name >> net.weight >> is_clock >> driver >>
        net.driver.offset.x >> net.driver.offset.y;
    if (!ss) fail(ln, "malformed net");
    if (driver < 0 || driver >= n_cells) fail(ln, "driver out of range");
    net.is_clock = is_clock != 0;
    net.driver.cell = static_cast<CellId>(driver);
    std::int64_t sink;
    double ox, oy;
    while (ss >> sink >> ox >> oy) {
      if (sink < 0 || sink >= n_cells) fail(ln, "sink out of range");
      net.sinks.push_back({static_cast<CellId>(sink), {ox, oy}});
    }
    if (net.sinks.empty()) fail(ln, "net without sinks");
    netlist.add_net(std::move(net));
  }
  netlist.freeze();
  return netlist;
}

Netlist read_design_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw StatusError(Status::not_found("design_io: cannot open " + path));
  return read_design(is);
}

void write_placement(std::ostream& os, const Placement3D& placement) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "dco3d-placement v1\n";
  os << "outline " << placement.outline.xlo << ' ' << placement.outline.ylo
     << ' ' << placement.outline.xhi << ' ' << placement.outline.yhi << '\n';
  os << "tiers " << placement.num_tiers << '\n';
  for (std::size_t i = 0; i < placement.size(); ++i)
    os << "place " << i << ' ' << placement.xy[i].x << ' ' << placement.xy[i].y
       << ' ' << placement.tier[i] << '\n';
  if (!os) throw StatusError(Status::io_error("design_io: write failed"));
}

void write_placement_file(const std::string& path, const Placement3D& placement) {
  std::ofstream os(path);
  if (!os) throw StatusError(Status::io_error("design_io: cannot open " + path));
  write_placement(os, placement);
}

Placement3D read_placement(std::istream& is, std::size_t num_cells) {
  std::string line;
  int lineno = 0;
  if (!std::getline(is, line) || line.rfind("dco3d-placement v1", 0) != 0)
    throw StatusError(
        Status::data_loss("design_io: missing 'dco3d-placement v1' header"));
  ++lineno;
  Placement3D pl = Placement3D::make(num_cells, Rect{0, 0, 1, 1});
  std::vector<bool> seen(num_cells, false);
  bool have_outline = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "outline") {
      ss >> pl.outline.xlo >> pl.outline.ylo >> pl.outline.xhi >> pl.outline.yhi;
      if (!ss) fail(lineno, "malformed outline");
      have_outline = true;
    } else if (tag == "tiers") {
      // Optional record (files predating N-tier support omit it → 2 dies).
      ss >> pl.num_tiers;
      if (!ss || pl.num_tiers < 1) fail(lineno, "malformed tiers");
      if (pl.num_tiers < 2 || pl.num_tiers > kMaxTiers)
        throw StatusError(Status::invalid_argument(
            "design_io: tiers must be in [2, " + std::to_string(kMaxTiers) +
            "] at line " + std::to_string(lineno)));
    } else if (tag == "place") {
      std::size_t idx;
      double x, y;
      int tier;
      ss >> idx >> x >> y >> tier;
      if (!ss) fail(lineno, "malformed place");
      if (idx >= num_cells) fail(lineno, "cell index out of range");
      if (tier < 0 || tier >= pl.num_tiers)
        fail(lineno, "tier must be in [0, num_tiers)");
      pl.xy[idx] = {x, y};
      pl.tier[idx] = tier;
      seen[idx] = true;
    } else {
      fail(lineno, "unknown record '" + tag + "'");
    }
  }
  if (!have_outline)
    throw StatusError(Status::data_loss("design_io: missing outline"));
  for (std::size_t i = 0; i < num_cells; ++i)
    if (!seen[i])
      throw StatusError(Status::data_loss("design_io: cell " +
                                          std::to_string(i) +
                                          " has no placement"));
  return pl;
}

Placement3D read_placement_file(const std::string& path, std::size_t num_cells) {
  std::ifstream is(path);
  if (!is) throw StatusError(Status::not_found("design_io: cannot open " + path));
  return read_placement(is, num_cells);
}

}  // namespace dco3d
