// The benchmark's workloads: inputs generated from the run's seed and
// the golden-model answers, computed once before anything is timed.
//
// The two programs mirror `stencilctl program` (tools/), whose
// constructors are not part of any library. The initial-field seeds
// differ, so each run draws fresh data, and the step counts are a quarter
// of the campaigns', so a run holds many jobs of each program.
#include <algorithm>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "bench.hpp"
#include "common/rng.hpp"
#include "program/program_reference.hpp"
#include "stencil/reference.hpp"
#include "stencil/star_stencil.hpp"

namespace perfbench {

using namespace fpga_stencil;

namespace {

/// Independent sub-seed `tag` of the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix64 rng(seed ^ (tag * 0x9E3779B97F4A7C15ull));
  return rng.next_u64();
}

/// Block-parallel threads of every job: the host's cores, at most four.
int client_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return int(std::clamp<unsigned>(hc, 1, 4));
}

/// reference_run with its per-cell sweep (apply_taps) split over rows
/// (2D) or planes (3D) across the host's threads. Every output cell is
/// the same function of the same input grid, so the result is the golden
/// model's bit for bit; only the untimed set-up gets shorter.
template <typename GridT>
void golden_run(const TapSet& taps, GridT& grid, int iterations) {
  constexpr bool is_3d = std::is_same_v<GridT, Grid3D<float>>;
  GridT scratch = grid;
  std::int64_t outer = grid.ny(), rows = 1;
  if constexpr (is_3d) {
    outer = grid.nz();
    rows = grid.ny();
  }
  const int threads = int(std::max(1u, std::thread::hardware_concurrency()));
  for (int t = 0; t < iterations; ++t) {
    std::vector<std::thread> pool;
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        for (std::int64_t o = w; o < outer; o += threads) {
          for (std::int64_t y = 0; y < rows; ++y) {
            for (std::int64_t x = 0; x < grid.nx(); ++x) {
              if constexpr (is_3d) {
                scratch.at(x, y, o) = apply_taps(taps, grid, x, y, o);
              } else {
                scratch.at(x, o) = apply_taps(taps, grid, x, o);
              }
            }
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
    std::swap(grid, scratch);
  }
}

void set_single_expected(Kind& k) {
  GridVariant want = k.input;
  std::visit([&](auto& g) { golden_run(k.taps, g, k.iterations); }, want);
  k.updates = double(grid_variant_cells(want)) * double(k.iterations);
  k.stream_values = grid_variant_cells(want);
  k.expected.clear();
  k.expected.emplace_back("", std::move(want));
  k.streamed = {true};
}

void set_program_expected(Kind& k, ProgramSpec program) {
  program.validate();
  ProgramSpec warm = program;
  warm.steps = 1;
  k.expected = reference_run_program(program);
  k.streamed.clear();
  k.stream_values = 0;
  for (const FieldSpec& f : program.fields) {
    k.streamed.push_back(!f.work);
    if (!f.work) k.stream_values += grid_variant_cells(f.data);
  }
  k.updates = double(grid_variant_cells(program.fields.front().data)) *
              double(program.nodes.size()) * double(program.steps);
  k.program = std::make_shared<const ProgramSpec>(std::move(program));
  k.program_warm = std::make_shared<const ProgramSpec>(std::move(warm));
}

/// The paper's headline job: 3D radius-4 star with the acceptance
/// geometry (bsize 144x144, parvec 16, partime 4), 4 iterations.
Kind acceptance_kind(std::uint64_t seed, bool smoke) {
  Kind k;
  k.name = "star3d-r4";
  k.taps = StarStencil::make_benchmark(3, 4).to_taps();
  k.config.dims = 3;
  k.config.radius = 4;
  k.config.parvec = 16;
  k.config.partime = 4;
  k.config.bsize_x = 144;
  k.config.bsize_y = 144;
  k.config.validate();
  const std::int64_t n = smoke ? 160 : 512;
  Grid3D<float> g(n, n, smoke ? 32 : 256);
  g.fill_random(sub_seed(seed, 1));
  k.input = std::move(g);
  k.iterations = 4;
  set_single_expected(k);
  return k;
}

/// The 2D counterpart: radius-2 star (the radius of the paper's 2D
/// temporal-blocking ablation), 1.5D blocking with bsize 1024, parvec 16,
/// partime 4, on 8192x8192 for 4 iterations.
Kind acceptance2d_kind(std::uint64_t seed, bool smoke) {
  Kind k;
  k.name = "star2d-r2";
  k.taps = StarStencil::make_benchmark(2, 2).to_taps();
  k.config.dims = 2;
  k.config.radius = 2;
  k.config.parvec = 16;
  k.config.partime = 4;
  k.config.bsize_x = 1024;
  k.config.validate();
  const std::int64_t n = smoke ? 1024 : 8192;
  Grid2D<float> g(n, smoke ? 256 : n);
  g.fill_random(sub_seed(seed, 2));
  k.input = std::move(g);
  k.iterations = 4;
  set_single_expected(k);
  return k;
}

/// 2D FDTD E/H update: ez with dirichlet(0) walls, clamped H fields,
/// one-sided 2-tap derivative nodes.
Kind fdtd2d_kind(std::uint64_t seed, bool smoke) {
  const std::int64_t nx = smoke ? 128 : 1024, ny = smoke ? 96 : 768;
  ProgramSpec p;
  Grid2D<float> ez(nx, ny);
  ez.fill_random(sub_seed(seed, 101), -1.0f, 1.0f);
  Grid2D<float> hx(nx, ny);
  hx.fill_random(sub_seed(seed, 102), -0.5f, 0.5f);
  Grid2D<float> hy(nx, ny);
  hy.fill_random(sub_seed(seed, 103), -0.5f, 0.5f);
  p.fields = {
      FieldSpec{"ez", std::move(ez), BoundaryCondition::dirichlet(0.0f)},
      FieldSpec{"hx", std::move(hx), BoundaryCondition::clamp()},
      FieldSpec{"hy", std::move(hy), BoundaryCondition::clamp()},
  };
  AcceleratorConfig cfg;
  cfg.dims = 2;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 64;
  cfg.bsize_y = 1;
  cfg.validate();
  p.nodes = {
      KernelNode{"hx_up",
                 TapSet(2, 1, {Tap{0, 0, 0, -0.5f}, Tap{0, 1, 0, 0.5f}}), cfg,
                 "ez", "hx", CombineOp::add, 1, {}},
      KernelNode{"hy_up",
                 TapSet(2, 1, {Tap{0, 0, 0, 0.5f}, Tap{1, 0, 0, -0.5f}}), cfg,
                 "ez", "hy", CombineOp::add, 1, {}},
      KernelNode{"ez_x",
                 TapSet(2, 1, {Tap{0, 0, 0, 0.5f}, Tap{-1, 0, 0, -0.5f}}), cfg,
                 "hy", "ez", CombineOp::add, 1, {"hy_up"}},
      KernelNode{"ez_y",
                 TapSet(2, 1, {Tap{0, 0, 0, -0.5f}, Tap{0, -1, 0, 0.5f}}), cfg,
                 "hx", "ez", CombineOp::add, 1, {"hx_up", "ez_x"}},
  };
  p.steps = smoke ? 2 : 8;
  Kind k;
  k.name = "fdtd2d";
  set_program_expected(k, std::move(p));
  return k;
}

/// 3D damped wave on reflective walls, leapfrogged through a work field
/// with identity rotation nodes.
Kind wave3d_kind(std::uint64_t seed, bool smoke) {
  const std::int64_t n = smoke ? 32 : 128, nz = smoke ? 16 : 64;
  const float kC = 0.0625f, kGamma = 0.0625f;
  ProgramSpec p;
  Grid3D<float> u(n, n, nz);
  u.fill_random(sub_seed(seed, 201), -1.0f, 1.0f);
  Grid3D<float> u_prev = u;  // starts at rest
  p.fields = {
      FieldSpec{"u_prev", std::move(u_prev), BoundaryCondition::clamp()},
      FieldSpec{"u", std::move(u), BoundaryCondition::reflective()},
      FieldSpec{"u_next", Grid3D<float>(n, n, nz), BoundaryCondition::clamp(),
                /*work=*/true},
  };
  AcceleratorConfig cfg;
  cfg.dims = 3;
  cfg.radius = 1;
  cfg.parvec = 4;
  cfg.partime = 1;
  cfg.bsize_x = 32;
  cfg.bsize_y = 32;
  cfg.validate();
  const TapSet wave(3, 1,
                    {Tap{0, 0, 0, 2.0f - kGamma - 6.0f * kC},
                     Tap{-1, 0, 0, kC}, Tap{1, 0, 0, kC}, Tap{0, -1, 0, kC},
                     Tap{0, 1, 0, kC}, Tap{0, 0, -1, kC}, Tap{0, 0, 1, kC}});
  const TapSet center(3, 1, {Tap{0, 0, 0, -(1.0f - kGamma)}});
  const TapSet identity(3, 1, {Tap{0, 0, 0, 1.0f}});
  p.nodes = {
      KernelNode{"laplace", wave, cfg, "u", "u_next", CombineOp::assign, 1,
                 {}},
      KernelNode{"damp", center, cfg, "u_prev", "u_next", CombineOp::add, 1,
                 {"laplace"}},
      KernelNode{"rot_prev", identity, cfg, "u", "u_prev", CombineOp::assign,
                 1, {}},
      KernelNode{"rot_u", identity, cfg, "u_next", "u", CombineOp::assign, 1,
                 {"damp"}},
  };
  p.steps = smoke ? 2 : 4;
  Kind k;
  k.name = "wave3d";
  set_program_expected(k, std::move(p));
  return k;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"acceptance3d",
                                                 "acceptance2d", "programs"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  if (name == "acceptance3d") {
    w.kinds.push_back(acceptance_kind(seed, smoke));
  } else if (name == "acceptance2d") {
    w.kinds.push_back(acceptance2d_kind(seed, smoke));
  } else if (name == "programs") {
    w.kinds.push_back(fdtd2d_kind(seed, smoke));
    w.kinds.push_back(wave3d_kind(seed, smoke));
    w.epochs = 16;
  } else {
    throw std::invalid_argument("unknown workload `" + name + "`");
  }
  w.job_workers = client_workers();
  w.name = name;
  return w;
}

std::shared_ptr<const ProgramSpec> with_node_telemetry(
    const ProgramSpec& program, Telemetry* telemetry) {
  auto copy = std::make_shared<ProgramSpec>(program);
  for (KernelNode& node : copy->nodes) node.config.telemetry = telemetry;
  return copy;
}

}  // namespace perfbench
