#include "codegen/kernel_generator.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <span>
#include <sstream>
#include <vector>

#include "stencil/star_stencil.hpp"

namespace fpga_stencil {
namespace {

/// Tiny indented-source writer.
class SourceWriter {
 public:
  void line(const std::string& text = "") {
    for (int i = 0; i < indent_; ++i) os_ << "  ";
    os_ << text << "\n";
  }
  void open(const std::string& text) {
    line(text + " {");
    ++indent_;
  }
  void close(const std::string& suffix = "") {
    --indent_;
    line("}" + suffix);
  }
  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
  int indent_ = 0;
};

const char* direction_token(Direction d) {
  switch (d) {
    case Direction::kWest:  return "W";
    case Direction::kEast:  return "E";
    case Direction::kSouth: return "S";
    case Direction::kNorth: return "N";
    case Direction::kBelow: return "B";
    case Direction::kAbove: return "A";
  }
  return "?";
}

/// Clamping select for one neighbor: the offset expression the paper's
/// boundary-condition generator inserts. `coord` is the center's global
/// coordinate variable, `limit` the grid-extent-minus-one variable, and
/// `stride` the shift-register cells per coordinate unit.
std::string neighbor_select(Direction d, int i, const std::string& coord,
                            const std::string& limit,
                            const std::string& stride) {
  const std::string dist = std::to_string(i);
  std::string offset;
  switch (d) {
    case Direction::kWest:
    case Direction::kSouth:
    case Direction::kBelow:
      // negative direction: clamp at 0 -> fall back on the border cell
      offset = "((" + coord + " - " + dist + " < 0) ? (0 - " + coord +
               ") : -" + dist + ")";
      break;
    case Direction::kEast:
    case Direction::kNorth:
    case Direction::kAbove:
      offset = "((" + coord + " + " + dist + " > " + limit + ") ? (" + limit +
               " - " + coord + ") : " + dist + ")";
      break;
  }
  if (stride != "1") offset = "(" + offset + ") * " + stride;
  return offset;
}

void emit_lane_body(SourceWriter& w, const AcceleratorConfig& cfg, int lane,
                    bool comments) {
  const std::string l = std::to_string(lane);
  w.open("");  // lane scope
  if (comments) w.line("// ---- lane " + l + " ----");
  w.line("const long flat = flat0 + " + l + ";");
  w.line("const long center = (long)RAD * ROW_CELLS + " + l + ";");
  if (cfg.dims == 2) {
    w.line("const long row = flat / BSIZE_X;");
    w.line("const long xg = c.block_x0 + flat % BSIZE_X;");
    w.line("const long yg = row - (long)stage * RAD;");
    w.line("const int in_grid = flat >= 0 && xg >= 0 && xg < c.nx && "
           "yg >= 0 && yg < c.ny;");
  } else {
    w.line("const long plane = flat / ROW_CELLS;");
    w.line("const long rem = flat % ROW_CELLS;");
    w.line("const long xg = c.block_x0 + rem % BSIZE_X;");
    w.line("const long yg = c.block_y0 + rem / BSIZE_X;");
    w.line("const long zg = plane - (long)stage * RAD;");
    w.line("const int in_grid = flat >= 0 && xg >= 0 && xg < c.nx && "
           "yg >= 0 && yg < c.ny && zg >= 0 && zg < c.nz;");
  }
  w.line("const long nxm1 = c.nx - 1;");
  w.line("const long nym1 = c.ny - 1;");
  if (cfg.dims == 3) w.line("const long nzm1 = c.nz - 1;");
  w.line("float acc = COEF_C * sr[center];");
  if (comments) {
    w.line("// generated boundary conditions: every out-of-bound neighbor");
    w.line("// falls back on the border cell (clamping selects)");
  }
  for (int i = 1; i <= cfg.radius; ++i) {
    const auto dirs2 = kDirections2D;
    const auto dirs3 = kDirections3D;
    const std::span<const Direction> dirs =
        cfg.dims == 2 ? std::span<const Direction>(dirs2)
                      : std::span<const Direction>(dirs3);
    for (Direction d : dirs) {
      std::string coord, limit, stride;
      switch (d) {
        case Direction::kWest:
        case Direction::kEast:
          coord = "xg"; limit = "nxm1"; stride = "1";
          break;
        case Direction::kSouth:
        case Direction::kNorth:
          coord = "yg"; limit = "nym1"; stride = "BSIZE_X";
          break;
        case Direction::kBelow:
        case Direction::kAbove:
          coord = "zg"; limit = "nzm1"; stride = "ROW_CELLS";
          break;
      }
      w.line(std::string("acc += COEF_") + direction_token(d) + "_" +
             std::to_string(i) + " * sr[center + " +
             neighbor_select(d, i, coord, limit, stride) + "];");
    }
  }
  w.line("out.d[" + l + "] = in_grid ? acc : 0.0f;");
  w.close();
}

void emit_coefficient_macros(SourceWriter& w, const AcceleratorConfig& cfg) {
  auto guard = [&w](const std::string& name, const std::string& value) {
    w.line("#ifndef " + name);
    w.line("#define " + name + " " + value);
    w.line("#endif");
  };
  guard("COEF_C", "(0.5f)");
  const auto dirs2 = kDirections2D;
  const auto dirs3 = kDirections3D;
  const std::span<const Direction> dirs =
      cfg.dims == 2 ? std::span<const Direction>(dirs2)
                    : std::span<const Direction>(dirs3);
  for (int i = 1; i <= cfg.radius; ++i) {
    for (Direction d : dirs) {
      guard(std::string("COEF_") + direction_token(d) + "_" +
                std::to_string(i),
            "(0.5f / (2.0f * DIM * RAD))");
    }
  }
}

}  // namespace

std::string generate_lane_body(const AcceleratorConfig& cfg, int lane) {
  cfg.validate();
  FPGASTENCIL_EXPECT(lane >= 0 && lane < cfg.parvec, "lane out of range");
  SourceWriter w;
  emit_lane_body(w, cfg, lane, /*comments=*/false);
  return w.str();
}

std::string generate_kernel_source(const CodegenOptions& options) {
  const AcceleratorConfig& cfg = options.config;
  cfg.validate();
  const bool cm = options.emit_comments;

  SourceWriter w;
  if (cm) {
    w.line("// Auto-generated high-order stencil kernel.");
    w.line("// Configuration: " + cfg.describe());
    w.line("// Deep-pipeline design: read kernel -> " +
           std::to_string(cfg.partime) +
           " autorun compute PEs -> write kernel, connected by channels.");
  }
  w.line("#pragma OPENCL EXTENSION cl_intel_channels : enable");
  w.line();
  w.line("#define DIM " + std::to_string(cfg.dims));
  w.line("#define RAD " + std::to_string(cfg.radius));
  w.line("#define BSIZE_X " + std::to_string(cfg.bsize_x));
  if (cfg.dims == 3) w.line("#define BSIZE_Y " + std::to_string(cfg.bsize_y));
  w.line("#define PAR_VEC " + std::to_string(cfg.parvec));
  w.line("#define PAR_TIME " + std::to_string(cfg.partime));
  w.line("#define HALO (PAR_TIME * RAD)");
  w.line(cfg.dims == 2 ? "#define ROW_CELLS (BSIZE_X)"
                       : "#define ROW_CELLS (BSIZE_X * BSIZE_Y)");
  w.line("#define SR_SIZE (2 * RAD * ROW_CELLS + PAR_VEC)");
  w.line();
  emit_coefficient_macros(w, cfg);
  w.line();
  w.line("typedef struct { float d[PAR_VEC]; } vec_t;");
  w.open("typedef struct");
  w.line("long block_x0;");
  if (cfg.dims == 3) w.line("long block_y0;");
  w.line("long nx;");
  w.line("long ny;");
  if (cfg.dims == 3) w.line("long nz;");
  w.line("long vec_count;");
  w.close(" ctrl_t;");
  w.line();
  w.line("channel vec_t ch_data[PAR_TIME + 1] __attribute__((depth(64)));");
  w.line("channel ctrl_t ch_ctrl[PAR_TIME + 1] __attribute__((depth(4)));");
  w.line();

  // ------------------------------------------------------------- read
  if (cm) {
    w.line("// Read kernel: streams one overlapped block per invocation,");
    w.line("// zero-padding cells that fall outside the grid.");
  }
  if (cfg.dims == 2) {
    w.open("__kernel void stencil_read(__global const float * restrict grid,"
           " const long block_x0, const long nx, const long ny,"
           " const long vec_count)");
    w.line("ctrl_t c = {block_x0, nx, ny, vec_count};");
  } else {
    w.open("__kernel void stencil_read(__global const float * restrict grid,"
           " const long block_x0, const long block_y0, const long nx,"
           " const long ny, const long nz, const long vec_count)");
    w.line("ctrl_t c = {block_x0, block_y0, nx, ny, nz, vec_count};");
  }
  w.line("write_channel_intel(ch_ctrl[0], c);");
  if (cm) w.line("// collapsed loop: a single global vector index (exit");
  if (cm) w.line("// condition optimization -- one accumulate-and-compare)");
  w.open("for (long q = 0; q < vec_count; ++q)");
  w.line("vec_t v;");
  w.line("const long flat = q * PAR_VEC;");
  if (cfg.dims == 2) {
    w.line("const long row = flat / BSIZE_X;");
    w.line("const long xr = flat % BSIZE_X;");
    w.line("#pragma unroll");
    w.open("for (int l = 0; l < PAR_VEC; ++l)");
    w.line("const long xg = block_x0 + xr + l;");
    w.line("const int ok = xg >= 0 && xg < nx && row < ny;");
    w.line("v.d[l] = ok ? grid[row * nx + xg] : 0.0f;");
    w.close();
  } else {
    w.line("const long plane = flat / ROW_CELLS;");
    w.line("const long rem = flat % ROW_CELLS;");
    w.line("const long yg = block_y0 + rem / BSIZE_X;");
    w.line("const long xr = rem % BSIZE_X;");
    w.line("#pragma unroll");
    w.open("for (int l = 0; l < PAR_VEC; ++l)");
    w.line("const long xg = block_x0 + xr + l;");
    w.line("const int ok = xg >= 0 && xg < nx && yg >= 0 && yg < ny &&"
           " plane < nz;");
    w.line("v.d[l] = ok ? grid[(plane * ny + yg) * nx + xg] : 0.0f;");
    w.close();
  }
  w.line("write_channel_intel(ch_data[0], v);");
  w.close();
  w.close();
  w.line();

  // ---------------------------------------------------------- compute
  if (cm) {
    w.line("// Compute PE: autorun, replicated PAR_TIME times; each replica");
    w.line("// advances the block one time step (temporal blocking).");
  }
  w.line("__attribute__((max_global_work_dim(0)))");
  w.line("__attribute__((autorun))");
  w.line("__attribute__((num_compute_units(PAR_TIME)))");
  w.open("__kernel void stencil_compute(void)");
  w.line("const int stage = get_compute_id(0);");
  w.line("float sr[SR_SIZE];");
  w.open("while (1)");
  w.line("const ctrl_t c = read_channel_intel(ch_ctrl[stage]);");
  w.line("write_channel_intel(ch_ctrl[stage + 1], c);");
  w.open("for (long q = 0; q < c.vec_count; ++q)");
  if (cm) w.line("// shift register advances by PAR_VEC cells per cycle");
  w.line("#pragma unroll");
  w.open("for (int s = 0; s < SR_SIZE - PAR_VEC; ++s)");
  w.line("sr[s] = sr[s + PAR_VEC];");
  w.close();
  w.line("const vec_t in = read_channel_intel(ch_data[stage]);");
  w.line("#pragma unroll");
  w.open("for (int l = 0; l < PAR_VEC; ++l)");
  w.line("sr[SR_SIZE - PAR_VEC + l] = in.d[l];");
  w.close();
  w.line("vec_t out;");
  w.line("const long flat0 = q * PAR_VEC - (long)RAD * ROW_CELLS;");
  for (int lane = 0; lane < cfg.parvec; ++lane) {
    emit_lane_body(w, cfg, lane, cm);
  }
  w.line("write_channel_intel(ch_data[stage + 1], out);");
  w.close();
  w.close();
  w.close();
  w.line();

  // ------------------------------------------------------------ write
  if (cm) {
    w.line("// Write kernel: retires the valid (non-halo) cells of each");
    w.line("// output vector to external memory.");
  }
  if (cfg.dims == 2) {
    w.open("__kernel void stencil_write(__global float * restrict grid,"
           " const long valid_x_end)");
  } else {
    w.open("__kernel void stencil_write(__global float * restrict grid,"
           " const long valid_x_end, const long valid_y_end)");
  }
  w.line("const ctrl_t c = read_channel_intel(ch_ctrl[PAR_TIME]);");
  w.open("for (long q = 0; q < c.vec_count; ++q)");
  w.line("const vec_t v = read_channel_intel(ch_data[PAR_TIME]);");
  w.line("const long flat = q * PAR_VEC;");
  if (cfg.dims == 2) {
    w.line("const long yg = flat / BSIZE_X - HALO;");
    w.line("const long xr0 = flat % BSIZE_X;");
    w.line("if (yg < 0 || yg >= c.ny) continue;");
    w.line("#pragma unroll");
    w.open("for (int l = 0; l < PAR_VEC; ++l)");
    w.line("const long xr = xr0 + l;");
    w.line("const long xg = c.block_x0 + xr;");
    w.line("const int ok = xr >= HALO && xr < HALO + (BSIZE_X - 2 * HALO) &&"
           " xg < valid_x_end;");
    w.line("if (ok) grid[yg * c.nx + xg] = v.d[l];");
    w.close();
  } else {
    w.line("const long zg = flat / ROW_CELLS - HALO;");
    w.line("const long rem = flat % ROW_CELLS;");
    w.line("const long yr = rem / BSIZE_X;");
    w.line("const long yg = c.block_y0 + yr;");
    w.line("const long xr0 = rem % BSIZE_X;");
    w.line("if (zg < 0 || zg >= c.nz) continue;");
    w.line("if (yr < HALO || yr >= HALO + (BSIZE_Y - 2 * HALO) ||"
           " yg >= valid_y_end) continue;");
    w.line("#pragma unroll");
    w.open("for (int l = 0; l < PAR_VEC; ++l)");
    w.line("const long xr = xr0 + l;");
    w.line("const long xg = c.block_x0 + xr;");
    w.line("const int ok = xr >= HALO && xr < HALO + (BSIZE_X - 2 * HALO) &&"
           " xg < valid_x_end;");
    w.line("if (ok) grid[(zg * c.ny + yg) * c.nx + xg] = v.d[l];");
    w.close();
  }
  w.close();
  w.close();

  return w.str();
}

namespace {

/// Per-axis clamping select for a tap component; empty for 0 offsets.
std::string axis_select(std::int64_t d, const std::string& coord,
                        const std::string& limit, const std::string& stride) {
  if (d == 0) return "";
  std::string off;
  if (d < 0) {
    const std::string a = std::to_string(-d);
    off = "((" + coord + " - " + a + " < 0) ? (0 - " + coord + ") : -" + a +
          ")";
  } else {
    const std::string a = std::to_string(d);
    off = "((" + coord + " + " + a + " > " + limit + ") ? (" + limit +
          " - " + coord + ") : " + a + ")";
  }
  if (stride != "1") off = "(" + off + ") * " + stride;
  return off;
}

std::string format_coeff(float c) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.9gf", double(c));
  return std::string(buf.data());
}

}  // namespace

std::string generate_tap_kernel_source(const TapSet& taps,
                                       const CodegenOptions& options) {
  // axis_select emits clamping selects only; another boundary condition
  // would silently compile to a clamp kernel.
  FPGASTENCIL_EXPECT(taps.boundary().is_clamp(),
                     "the OpenCL generator emits clamp boundaries only; "
                     "tap set boundary is " + taps.boundary().describe());
  // The interpreter's window, so the kernel holds every border image.
  const AcceleratorConfig cfg = resolve_stage_lag(taps, options.config);
  const ShiftWindow window = shift_window(taps, cfg);
  const bool cm = options.emit_comments;

  SourceWriter w;
  if (cm) {
    w.line("// Auto-generated tap-set stencil kernel (" +
           std::to_string(taps.size()) + " taps).");
    w.line("// Configuration: " + cfg.describe());
  }
  w.line("#pragma OPENCL EXTENSION cl_intel_channels : enable");
  w.line();
  w.line("#define DIM " + std::to_string(cfg.dims));
  w.line("#define RAD " + std::to_string(cfg.radius));
  w.line("#define BSIZE_X " + std::to_string(cfg.bsize_x));
  if (cfg.dims == 3) w.line("#define BSIZE_Y " + std::to_string(cfg.bsize_y));
  w.line("#define PAR_VEC " + std::to_string(cfg.parvec));
  w.line("#define PAR_TIME " + std::to_string(cfg.partime));
  w.line("#define HALO (PAR_TIME * RAD)");
  w.line("#define STAGE_LAG " + std::to_string(window.stage_lag));
  w.line("#define DRAIN (PAR_TIME * STAGE_LAG)");
  w.line(cfg.dims == 2 ? "#define ROW_CELLS (BSIZE_X)"
                       : "#define ROW_CELLS (BSIZE_X * BSIZE_Y)");
  w.line("#define SR_SIZE " + std::to_string(window.size));
  w.line("#define CENTER_BASE " + std::to_string(window.center_base));
  w.line();
  if (cm) w.line("// coefficients baked in, in accumulation order");
  {
    std::string init = "__constant float COEFS[" +
                       std::to_string(taps.size()) + "] = {";
    for (std::size_t t = 0; t < taps.size(); ++t) {
      if (t) init += ", ";
      init += format_coeff(taps.taps()[t].coeff);
    }
    init += "};";
    w.line(init);
  }
  w.line();
  w.line("typedef struct { float d[PAR_VEC]; } vec_t;");
  w.open("typedef struct");
  w.line("long block_x0;");
  if (cfg.dims == 3) w.line("long block_y0;");
  w.line("long nx;");
  w.line("long ny;");
  if (cfg.dims == 3) w.line("long nz;");
  w.line("long vec_count;");
  w.close(" ctrl_t;");
  w.line();
  w.line("channel vec_t ch_data[PAR_TIME + 1] __attribute__((depth(64)));");
  w.line("channel ctrl_t ch_ctrl[PAR_TIME + 1] __attribute__((depth(4)));");
  w.line();

  // Compute PE only: the read/write kernels of the star dialect apply
  // unchanged except for DRAIN; emit the full trio for self-containment.
  w.line("__attribute__((max_global_work_dim(0)))");
  w.line("__attribute__((autorun))");
  w.line("__attribute__((num_compute_units(PAR_TIME)))");
  w.open("__kernel void stencil_compute(void)");
  w.line("const int stage = get_compute_id(0);");
  w.line("float sr[SR_SIZE];");
  w.open("while (1)");
  w.line("const ctrl_t c = read_channel_intel(ch_ctrl[stage]);");
  w.line("write_channel_intel(ch_ctrl[stage + 1], c);");
  w.open("for (long q = 0; q < c.vec_count; ++q)");
  w.line("#pragma unroll");
  w.open("for (int s = 0; s < SR_SIZE - PAR_VEC; ++s)");
  w.line("sr[s] = sr[s + PAR_VEC];");
  w.close();
  w.line("const vec_t in = read_channel_intel(ch_data[stage]);");
  w.line("#pragma unroll");
  w.open("for (int l = 0; l < PAR_VEC; ++l)");
  w.line("sr[SR_SIZE - PAR_VEC + l] = in.d[l];");
  w.close();
  w.line("vec_t out;");
  w.line("const long flat0 = q * PAR_VEC - (long)STAGE_LAG * ROW_CELLS;");
  for (int lane = 0; lane < cfg.parvec; ++lane) {
    const std::string l = std::to_string(lane);
    w.open("");
    if (cm) w.line("// ---- lane " + l + " ----");
    w.line("const long flat = flat0 + " + l + ";");
    w.line("const long center = CENTER_BASE + " + l + ";");
    if (cfg.dims == 2) {
      w.line("const long row = flat / BSIZE_X;");
      w.line("const long xg = c.block_x0 + flat % BSIZE_X;");
      w.line("const long yg = row - (long)stage * STAGE_LAG;");
      w.line("const int in_grid = flat >= 0 && xg >= 0 && xg < c.nx && "
             "yg >= 0 && yg < c.ny;");
    } else {
      w.line("const long plane = flat / ROW_CELLS;");
      w.line("const long rem = flat % ROW_CELLS;");
      w.line("const long xg = c.block_x0 + rem % BSIZE_X;");
      w.line("const long yg = c.block_y0 + rem / BSIZE_X;");
      w.line("const long zg = plane - (long)stage * STAGE_LAG;");
      w.line("const int in_grid = flat >= 0 && xg >= 0 && xg < c.nx && "
             "yg >= 0 && yg < c.ny && zg >= 0 && zg < c.nz;");
    }
    w.line("const long nxm1 = c.nx - 1;");
    w.line("const long nym1 = c.ny - 1;");
    if (cfg.dims == 3) w.line("const long nzm1 = c.nz - 1;");
    for (std::size_t t = 0; t < taps.size(); ++t) {
      const Tap& tap = taps.taps()[t];
      std::vector<std::string> parts;
      const std::string sx = axis_select(tap.dx, "xg", "nxm1", "1");
      const std::string sy = axis_select(tap.dy, "yg", "nym1", "BSIZE_X");
      const std::string sz =
          cfg.dims == 3 ? axis_select(tap.dz, "zg", "nzm1", "ROW_CELLS")
                        : std::string();
      std::string off;
      for (const std::string& s : {sx, sy, sz}) {
        if (s.empty()) continue;
        if (!off.empty()) off += " + ";
        off += s;
      }
      if (off.empty()) off = "0";
      const std::string idx = "sr[center + " + off + "]";
      if (t == 0) {
        w.line("float acc = COEFS[0] * " + idx + ";");
      } else {
        w.line("acc += COEFS[" + std::to_string(t) + "] * " + idx + ";");
      }
    }
    w.line("out.d[" + l + "] = in_grid ? acc : 0.0f;");
    w.close();
  }
  w.line("write_channel_intel(ch_data[stage + 1], out);");
  w.close();
  w.close();
  w.close();
  w.line();

  // Read and write kernels: identical structure to the star dialect, with
  // the write kernel lagging DRAIN stream rows.
  if (cfg.dims == 2) {
    w.open("__kernel void stencil_read(__global const float * restrict grid,"
           " const long block_x0, const long nx, const long ny,"
           " const long vec_count)");
    w.line("ctrl_t c = {block_x0, nx, ny, vec_count};");
  } else {
    w.open("__kernel void stencil_read(__global const float * restrict grid,"
           " const long block_x0, const long block_y0, const long nx,"
           " const long ny, const long nz, const long vec_count)");
    w.line("ctrl_t c = {block_x0, block_y0, nx, ny, nz, vec_count};");
  }
  w.line("write_channel_intel(ch_ctrl[0], c);");
  w.open("for (long q = 0; q < vec_count; ++q)");
  w.line("vec_t v;");
  w.line("const long flat = q * PAR_VEC;");
  if (cfg.dims == 2) {
    w.line("const long row = flat / BSIZE_X;");
    w.line("const long xr = flat % BSIZE_X;");
    w.line("#pragma unroll");
    w.open("for (int l = 0; l < PAR_VEC; ++l)");
    w.line("const long xg = block_x0 + xr + l;");
    w.line("const int ok = xg >= 0 && xg < nx && row < ny;");
    w.line("v.d[l] = ok ? grid[row * nx + xg] : 0.0f;");
    w.close();
  } else {
    w.line("const long plane = flat / ROW_CELLS;");
    w.line("const long rem = flat % ROW_CELLS;");
    w.line("const long yg = block_y0 + rem / BSIZE_X;");
    w.line("const long xr = rem % BSIZE_X;");
    w.line("#pragma unroll");
    w.open("for (int l = 0; l < PAR_VEC; ++l)");
    w.line("const long xg = block_x0 + xr + l;");
    w.line("const int ok = xg >= 0 && xg < nx && yg >= 0 && yg < ny &&"
           " plane < nz;");
    w.line("v.d[l] = ok ? grid[(plane * ny + yg) * nx + xg] : 0.0f;");
    w.close();
  }
  w.line("write_channel_intel(ch_data[0], v);");
  w.close();
  w.close();
  w.line();

  if (cfg.dims == 2) {
    w.open("__kernel void stencil_write(__global float * restrict grid,"
           " const long valid_x_end)");
  } else {
    w.open("__kernel void stencil_write(__global float * restrict grid,"
           " const long valid_x_end, const long valid_y_end)");
  }
  w.line("const ctrl_t c = read_channel_intel(ch_ctrl[PAR_TIME]);");
  w.open("for (long q = 0; q < c.vec_count; ++q)");
  w.line("const vec_t v = read_channel_intel(ch_data[PAR_TIME]);");
  w.line("const long flat = q * PAR_VEC;");
  if (cfg.dims == 2) {
    w.line("const long yg = flat / BSIZE_X - DRAIN;");
    w.line("const long xr0 = flat % BSIZE_X;");
    w.line("if (yg < 0 || yg >= c.ny) continue;");
  } else {
    w.line("const long zg = flat / ROW_CELLS - DRAIN;");
    w.line("const long rem = flat % ROW_CELLS;");
    w.line("const long yr = rem / BSIZE_X;");
    w.line("const long yg = c.block_y0 + yr;");
    w.line("const long xr0 = rem % BSIZE_X;");
    w.line("if (zg < 0 || zg >= c.nz) continue;");
    w.line("if (yr < HALO || yr >= HALO + (BSIZE_Y - 2 * HALO) ||"
           " yg >= valid_y_end) continue;");
  }
  w.line("#pragma unroll");
  w.open("for (int l = 0; l < PAR_VEC; ++l)");
  w.line("const long xr = xr0 + l;");
  w.line("const long xg = c.block_x0 + xr;");
  w.line("const int ok = xr >= HALO && xr < HALO + (BSIZE_X - 2 * HALO) &&"
         " xg < valid_x_end;");
  if (cfg.dims == 2) {
    w.line("if (ok) grid[yg * c.nx + xg] = v.d[l];");
  } else {
    w.line("if (ok) grid[(zg * c.ny + yg) * c.nx + xg] = v.d[l];");
  }
  w.close();
  w.close();
  w.close();

  return w.str();
}

SourceMetrics analyze_source(const std::string& source) {
  SourceMetrics m;
  std::int64_t paren = 0, brace = 0, bracket = 0;
  bool bad = false;
  for (char ch : source) {
    switch (ch) {
      case '(': ++paren; break;
      case ')': --paren; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      case '?': ++m.selects; break;
      case '\n': ++m.lines; break;
      default: break;
    }
    if (paren < 0 || brace < 0 || bracket < 0) bad = true;
  }
  m.balanced = !bad && paren == 0 && brace == 0 && bracket == 0;

  for (std::size_t pos = source.find("acc +="); pos != std::string::npos;
       pos = source.find("acc +=", pos + 1)) {
    ++m.accumulations;
  }
  for (std::size_t pos = source.find("#pragma unroll");
       pos != std::string::npos;
       pos = source.find("#pragma unroll", pos + 1)) {
    ++m.unroll_pragmas;
  }
  return m;
}

}  // namespace fpga_stencil
