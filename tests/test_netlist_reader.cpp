// Ingestion tests: the structural-Verilog subset and Bookshelf readers
// (io/netlist_reader.hpp) — golden imports of the checked-in examples,
// malformed-input rejection with the documented status codes, Verilog
// export round-trips, and the paper-scale acceptance flow (an imported
// design at >= 10x the default benchmark scale through the tier-1 flow).

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

#include "flow/pin3d.hpp"
#include "io/netlist_reader.hpp"
#include "netlist/generators.hpp"
#include "netlist/validate.hpp"
#include "test_helpers.hpp"

#ifndef DCO3D_EXAMPLES_DIR
#define DCO3D_EXAMPLES_DIR "examples"
#endif

namespace dco3d {
namespace {

std::string example(const char* name) {
  return std::string(DCO3D_EXAMPLES_DIR) + "/" + name;
}

StatusCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    return e.status().code();
  }
  return StatusCode::kOk;
}

// ---------------------------------------------------------------------------
// Verilog: golden import of the checked-in example.

TEST(VerilogReader, ImportsCounterExample) {
  ImportReport rep;
  const Netlist nl = read_verilog_file(example("counter8.v"), &rep);

  EXPECT_TRUE(nl.frozen());
  EXPECT_EQ(rep.top, "counter8");
  EXPECT_EQ(rep.cells, nl.num_cells());
  EXPECT_EQ(rep.nets, nl.num_nets());
  EXPECT_EQ(rep.pins, nl.num_pins());
  // 11 port bits -> 11 IO pads (clk, rst_n, en, q[7:0]).
  EXPECT_EQ(rep.ios, 11u);
  // q[8] + d[8] + carry[8] + tog[7] bits were blasted.
  EXPECT_EQ(rep.bus_bits, 31u);
  // Two DFFRQ resets tied to 1'b1; u_q7.QN() and u_m.Y() unconnected;
  // unused_probe and carry[7] declared but never used.
  EXPECT_EQ(rep.constant_pins, 2u);
  EXPECT_EQ(rep.unconnected_pins, 2u);
  EXPECT_EQ(rep.unused_wires, 2u);
  EXPECT_EQ(rep.undriven_nets, 0u);

  // The example exercises all three mapping rules.
  auto rule_of = [&](const std::string& master) -> std::string {
    for (const ImportMapping& m : rep.mappings)
      if (m.master == master) return m.rule;
    return "<missing>";
  };
  EXPECT_EQ(rule_of("AND2_X1"), "exact");
  EXPECT_EQ(rule_of("DFFRQ"), "function");
  EXPECT_EQ(rule_of("AN2D1"), "function");
  EXPECT_EQ(rule_of("MYSTERY3"), "pin-count");

  // The import is lint-clean and usable by the flow as-is.
  EXPECT_TRUE(lint_netlist(nl).ok());
  EXPECT_FALSE(rep.to_string().empty());
}

TEST(VerilogReader, InfersClockNets) {
  const Netlist nl = read_verilog_file(example("counter8.v"));
  std::size_t clock_nets = 0, clock_sinks = 0;
  for (std::size_t ni = 0; ni < nl.num_nets(); ++ni) {
    const auto id = static_cast<NetId>(ni);
    if (!nl.net_is_clock(id)) continue;
    ++clock_nets;
    clock_sinks = nl.net_pins(id).size() - 1;
  }
  // Exactly one clock net (clk), feeding all 8 registers.
  EXPECT_EQ(clock_nets, 1u);
  EXPECT_EQ(clock_sinks, 8u);
}

TEST(VerilogReader, SynthesizesTieDriversForUndrivenNets) {
  // `floating` has sinks but no driver: the reader adds a fixed tie cell so
  // the result passes lint instead of failing kNoDriver.
  std::istringstream src(R"(
    module m(a, y);
      input a;
      output y;
      wire floating;
      NAND2_X1 u0 (.A(a), .B(floating), .Y(y));
    endmodule
  )");
  ImportReport rep;
  const Netlist nl = read_verilog(src, &rep);
  EXPECT_EQ(rep.undriven_nets, 1u);
  bool found_tie = false;
  for (std::size_t ci = 0; ci < nl.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (nl.cell_name(id) == "__tie_floating") {
      found_tie = true;
      EXPECT_TRUE(nl.cell(id).fixed);
    }
  }
  EXPECT_TRUE(found_tie);
  EXPECT_TRUE(lint_netlist(nl).ok());
}

TEST(VerilogReader, AcceptsAnsiPortDeclarations) {
  std::istringstream src(R"(
    module m(input clk, input [1:0] a, output y);
      INV_X1 u0 (.A(a[0]), .Y(y));
      BUF_X1 u1 (.A(a[1]), .Y());
      BUF_X1 u2 (.A(clk), .Y());
    endmodule
  )");
  ImportReport rep;
  const Netlist nl = read_verilog(src, &rep);
  EXPECT_EQ(rep.ios, 4u);  // clk, a[0], a[1], y
  EXPECT_EQ(rep.bus_bits, 2u);
  EXPECT_TRUE(lint_netlist(nl).ok());
}

// ---------------------------------------------------------------------------
// Verilog: malformed inputs map to the documented status codes.

TEST(VerilogReader, TruncatedFileIsDataLoss) {
  std::istringstream src("module m(a);\n  input a;\n  INV_X1 u0 (.A(a)");
  EXPECT_EQ(code_of([&] { read_verilog(src); }), StatusCode::kDataLoss);

  std::istringstream no_end("module m(a);\n  input a;\n  BUF_X1 u (.A(a), .Y());\n");
  EXPECT_EQ(code_of([&] { read_verilog(no_end); }), StatusCode::kDataLoss);
}

TEST(VerilogReader, UndeclaredWireIsRejected) {
  std::istringstream src(R"(
    module m(a);
      input a;
      INV_X1 u0 (.A(a), .Y(ghost));
    endmodule
  )");
  try {
    read_verilog(src);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(e.status().message().find("undeclared wire 'ghost'"),
              std::string::npos);
    EXPECT_NE(e.status().message().find("line 4"), std::string::npos);
  }
}

TEST(VerilogReader, WidthMismatchesAreRejected) {
  // A scalar used with a bit-select.
  std::istringstream scalar_indexed(R"(
    module m(a); input a;
      INV_X1 u0 (.A(a[0]), .Y());
    endmodule)");
  // A bus connected whole to a 1-bit pin.
  std::istringstream bus_whole(R"(
    module m(); wire [3:0] b;
      INV_X1 u0 (.A(b), .Y());
    endmodule)");
  // A bit-select outside the declared range.
  std::istringstream out_of_range(R"(
    module m(); wire [3:0] b;
      INV_X1 u0 (.A(b[7]), .Y());
    endmodule)");
  for (std::istringstream* src :
       {&scalar_indexed, &bus_whole, &out_of_range}) {
    try {
      read_verilog(*src);
      FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(e.status().message().find("width mismatch"), std::string::npos);
    }
  }
}

/// The status of reading `text`; its message must name `line`.
StatusCode verilog_error(const std::string& text, int line,
                         const std::string& needle) {
  std::istringstream src(text);
  try {
    read_verilog(src);
  } catch (const StatusError& e) {
    const std::string& msg = e.status().message();
    EXPECT_NE(msg.find("line " + std::to_string(line) + ":"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    return e.status().code();
  }
  return StatusCode::kOk;
}

TEST(VerilogReader, OutOfRangeNumbersAreLineNumberedErrors) {
  // Bus bounds past INT_MAX.
  EXPECT_EQ(verilog_error("module m(a);\n  input [99999999999:0] a;\nendmodule\n",
                          2, "bus msb '99999999999'"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(verilog_error("module m();\n  wire [3:99999999999] b;\nendmodule\n",
                          2, "bus lsb '99999999999'"),
            StatusCode::kInvalidArgument);
  // A range whose width overflows int, and one that would bit-blast 10^8
  // nets: both exceed the fixed bus-width cap instead.
  EXPECT_EQ(verilog_error("module m();\n  wire [2147483647:0] b;\nendmodule\n",
                          2, "2147483648 bits wide"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(verilog_error("module m();\n\n  wire [100000000:0] b;\nendmodule\n",
                          3, "100000001 bits wide"),
            StatusCode::kInvalidArgument);
  // A based literal is not a bus bound.
  EXPECT_EQ(verilog_error("module m();\n  wire [4'hF:0] b;\nendmodule\n", 2,
                          "not a decimal integer"),
            StatusCode::kInvalidArgument);
  // A bit-select past INT_MAX.
  EXPECT_EQ(verilog_error("module m();\n  wire [3:0] b;\n"
                          "  INV_X1 u0 (.A(b[99999999999]), .Y());\nendmodule\n",
                          3, "bit index '99999999999'"),
            StatusCode::kInvalidArgument);
  // A master whose drive-strength suffix does not fit an int.
  EXPECT_EQ(verilog_error("module m(a);\n  input a;\n"
                          "  NAND2_X99999999999 u0 (.A(a), .B(a), .Y());\n"
                          "endmodule\n",
                          3, "drive strength of master 'NAND2_X99999999999'"),
            StatusCode::kInvalidArgument);
}

TEST(VerilogReader, OverlongIdentifiersAreLineNumberedErrors) {
  const std::string longest(1024, 'n');
  const std::string too_long(1025, 'n');
  // At the cap, plain and escaped identifiers are accepted.
  std::istringstream ok("module m(" + longest + ");\n  input " + longest +
                        ";\n  wire \\" + longest + " ;\nendmodule\n");
  EXPECT_NO_THROW(read_verilog(ok));
  // One character past it, both are refused on their own line.
  EXPECT_EQ(verilog_error("module m();\n  wire " + too_long + ";\nendmodule\n",
                          2, "1025 characters long; at most 1024"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(verilog_error("module m();\n\n  wire \\" + too_long +
                              " ;\nendmodule\n",
                          3, "1025 characters long"),
            StatusCode::kInvalidArgument);
  // An identifier that runs to the end of the file is still refused.
  EXPECT_EQ(verilog_error("module " + std::string(1 << 20, 'm'), 1,
                          "1048576 characters long"),
            StatusCode::kInvalidArgument);
}

TEST(VerilogReader, ModuleBusBitsAreCapped) {
  // Four full-width buses fill the module's bit-blast budget; one more bit
  // of bus is refused on its line, and scalars do not count.
  std::string text = "module m();\n";
  for (int b = 0; b < 4; ++b)
    text += "  wire [65535:0] b" + std::to_string(b) + ";\n";
  text += "  wire s;\n  wire [0:0] e;\nendmodule\n";
  EXPECT_EQ(verilog_error(text, 7, "bus 'e' brings the module to 262145 bus "
                                   "bits; at most 262144"),
            StatusCode::kInvalidArgument);
}

TEST(VerilogReader, BusBitsNearIntMaxAndZeroPaddedSelects) {
  // The top bit of a bus ending at INT_MAX, and a zero-padded bit-select.
  std::istringstream src(R"(
    module m(); wire [2147483647:2147483644] b; wire [3:0] c;
      INV_X1 u0 (.A(b[2147483647]), .Y(c[000000000003]));
      INV_X1 u1 (.A(c[3]), .Y(b[2147483644]));
    endmodule)");
  ImportReport rep;
  const Netlist nl = read_verilog(src, &rep);
  EXPECT_EQ(rep.bus_bits, 8u);
  EXPECT_GE(nl.num_cells(), 2u);
}

// ---------------------------------------------------------------------------
// Bookshelf.

TEST(BookshelfReader, ImportsTinyExample) {
  ImportReport rep;
  Placement3D pl;
  const Netlist nl = read_bookshelf(example("tiny.aux"), &rep, &pl);

  EXPECT_TRUE(nl.frozen());
  EXPECT_EQ(nl.num_cells(), 9u);
  EXPECT_EQ(nl.num_nets(), 8u);
  EXPECT_EQ(nl.num_pins(), 18u);
  EXPECT_EQ(nl.num_ios(), 2u);  // pi, po terminals
  EXPECT_TRUE(lint_netlist(nl).ok());

  // Terminals and the tall node classify as pad / macro; movable 1x1 nodes
  // map to a standard cell by area.
  std::size_t pads = 0, macros = 0;
  for (std::size_t ci = 0; ci < nl.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (nl.is_io(id)) ++pads;
    if (nl.is_macro(id)) ++macros;
    if (nl.is_io(id) || nl.is_macro(id)) {
      EXPECT_TRUE(nl.cell(id).fixed);
    }
  }
  EXPECT_EQ(pads, 2u);
  EXPECT_EQ(macros, 1u);

  // The .pl sidecar came back as a placement over all cells.
  ASSERT_EQ(pl.size(), nl.num_cells());
  for (std::size_t ci = 0; ci < nl.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (nl.cell_name(id) == "m") {
      EXPECT_DOUBLE_EQ(pl.xy[ci].x, 4.5);
      EXPECT_DOUBLE_EQ(pl.xy[ci].y, 3.0);
    }
  }
}

TEST(BookshelfReader, DerivesSiblingsFromAnyExtension) {
  // Passing the .nodes file (no .aux) must find .nets/.pl by extension.
  ImportReport rep;
  const Netlist nl = read_bookshelf(example("tiny.nodes"), &rep);
  EXPECT_EQ(nl.num_cells(), 9u);
  EXPECT_EQ(nl.num_nets(), 8u);
}

TEST(BookshelfReader, TruncatedNetsFileIsDataLoss) {
  // A .nets file that ends inside a NetDegree block.
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream nodes(dir + "trunc.nodes");
    nodes << "NumNodes : 2\nNumTerminals : 0\n a 1 1\n b 1 1\n";
    std::ofstream nets(dir + "trunc.nets");
    nets << "NumNets : 1\nNumPins : 3\nNetDegree : 3 n0\n a O\n b I\n";
  }
  EXPECT_EQ(code_of([&] { read_bookshelf(dir + "trunc.nodes"); }),
            StatusCode::kDataLoss);
}

TEST(BookshelfReader, UnknownNodeInNetsIsRejected) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream nodes(dir + "ghost.nodes");
    nodes << "NumNodes : 1\nNumTerminals : 0\n a 1 1\n";
    std::ofstream nets(dir + "ghost.nets");
    nets << "NetDegree : 2 n0\n a O\n ghost I\n";
  }
  EXPECT_EQ(code_of([&] { read_bookshelf(dir + "ghost.nodes"); }),
            StatusCode::kInvalidArgument);
}

TEST(BookshelfReader, MissingFilesAreNotFound) {
  EXPECT_EQ(code_of([] { read_bookshelf("/nonexistent/x.aux"); }),
            StatusCode::kNotFound);
  EXPECT_EQ(code_of([] { read_bookshelf("/nonexistent/x.nodes"); }),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Verilog export: write_verilog output re-imports to the same structure.

TEST(VerilogWriter, RoundTripsGeneratedDesign) {
  const Netlist original = testing::tiny_design(200);
  std::stringstream ss;
  write_verilog(ss, original, "tiny");

  ImportReport rep;
  const Netlist loaded = read_verilog(ss, &rep);
  EXPECT_EQ(rep.top, "tiny");
  ASSERT_EQ(loaded.num_cells(), original.num_cells());
  ASSERT_EQ(loaded.num_nets(), original.num_nets());
  ASSERT_EQ(loaded.num_pins(), original.num_pins());
  EXPECT_EQ(loaded.num_ios(), original.num_ios());

  // Cell order, fixedness, and per-net pin multisets survive. Sink order
  // inside a net is not preserved (the reader encounters pins in cell
  // order), so compare sorted (cell, dir) pairs; the driver stays first.
  for (std::size_t ci = 0; ci < original.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    EXPECT_EQ(loaded.cell(id).fixed, original.cell(id).fixed);
    EXPECT_EQ(loaded.is_macro(id), original.is_macro(id));
    EXPECT_EQ(loaded.is_io(id), original.is_io(id));
  }
  for (std::size_t ni = 0; ni < original.num_nets(); ++ni) {
    const auto id = static_cast<NetId>(ni);
    const auto pa = original.net_pins(id);
    const auto pb = loaded.net_pins(id);
    ASSERT_EQ(pb.size(), pa.size());
    EXPECT_EQ(pb[0].cell, pa[0].cell);  // driver
    EXPECT_EQ(pb[0].dir, PinDir::kDriver);
    auto key_sorted = [](std::span<const Pin> pins) {
      std::vector<std::pair<CellId, int>> v;
      for (const Pin& p : pins) v.emplace_back(p.cell, static_cast<int>(p.dir));
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(key_sorted(pb), key_sorted(pa));
  }
  EXPECT_TRUE(lint_netlist(loaded).ok());
}

TEST(VerilogWriter, RequiresFrozenNetlist) {
  Netlist nl(Library::make_default());
  nl.add_cell("c0", 0);
  std::stringstream ss;
  EXPECT_THROW(write_verilog(ss, nl), StatusError);
}

// ---------------------------------------------------------------------------
// Acceptance: an imported design at >= 10x the default benchmark scale runs
// the tier-1 flow end-to-end (ISSUE: paper-scale ingestion).

TEST(ImportFlow, TenXScaleImportRunsTierOneFlow) {
  // Default CLI scale is 0.04 (~570 cells for dma); 0.45 clears 10x with
  // margin (cell count is not exactly linear in scale).
  const Netlist generated = generate_design(spec_for(DesignKind::kDma, 0.45));
  const std::size_t default_cells =
      generate_design(spec_for(DesignKind::kDma, 0.04)).num_cells();
  ASSERT_GE(generated.num_cells(), 10 * default_cells);

  std::stringstream ss;
  write_verilog(ss, generated, "dma10x");
  ImportReport rep;
  const Netlist imported = read_verilog(ss, &rep);
  ASSERT_EQ(imported.num_cells(), generated.num_cells());
  EXPECT_TRUE(lint_netlist(imported).ok());

  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  const FlowResult r = run_pin3d_flow(imported, cfg);
  EXPECT_GT(r.after_place.wirelength_um, 0.0);
  EXPECT_GT(r.signoff.wirelength_um, 0.0);
  EXPECT_GT(r.signoff.power_mw, 0.0);
}

}  // namespace
}  // namespace dco3d
