// March-table suite: the SoA coefficient form of the vertical crossing test
// against the AoS oracle (clean and degenerate hits), and the per-cell
// tables against the same entries computed at each visit, which must render
// bitwise-identical grids and ray statistics.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>

#include "dtfe/march_tables.h"
#include "dtfe/marching_kernel.h"
#include "engine/field_kernel.h"
#include "geometry/ray_tetra.h"
#include "geometry/tetra_coef.h"
#include "nbody/generators.h"

namespace dtfe {
namespace {

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
double unit(std::uint64_t& s) {
  return static_cast<double>(xorshift(s) >> 11) * 0x1.0p-53;
}

std::array<Vec3, 4> random_tetra(std::uint64_t& s) {
  std::array<Vec3, 4> v;
  for (auto& p : v) p = {unit(s) * 10.0, unit(s) * 10.0, unit(s) * 10.0};
  return v;
}

// The coefficient form is allowed to round ~1 ulp away from the direct AoS
// geometry (the AoS path is the oracle, not the production march) — but on
// clean crossings the classification must agree and the heights must match
// to ~1e-12 relative.
TEST(MarchTables, CoefMatchesAosOracleWithinTolerance) {
  std::uint64_t s = 0x1234ULL;
  int compared = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto v = random_tetra(s);
    const VerticalTetraCoef c = make_vertical_coef(v);
    const Vec2 xi{(v[0].x + v[1].x + v[2].x + v[3].x) * 0.25,
                  (v[0].y + v[1].y + v[2].y + v[3].y) * 0.25};
    double sp[6];
    coef_edge_products(c, xi, sp);
    const VerticalSpan span = coef_vertical_span(c, sp);
    const LineTetraHit aos = line_tetra_vertical(xi, v);
    if (span.degenerate || aos.degenerate) continue;
    ASSERT_EQ(span.intersects, aos.intersects);
    if (!span.intersects) continue;
    ++compared;
    EXPECT_NEAR(span.z_enter, aos.t_enter, 1e-12 * (1.0 + std::abs(aos.t_enter)));
    EXPECT_NEAR(span.z_exit, aos.t_exit, 1e-12 * (1.0 + std::abs(aos.t_exit)));
  }
  EXPECT_GT(compared, 500);
}

// Exact vertex and edge hits, where the classification decides whether the
// march perturbs. The two forms may round a near-zero product differently,
// so on such a hit one may call degenerate (or a miss) what the other
// passes; but interior rays must classify alike, and a crossing both call
// clean must be the same crossing.
TEST(MarchTables, DegenerateClassificationAgainstAosOracle) {
  std::uint64_t s = 0xabcdULL;
  int both_clean = 0, both_degenerate = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto v = random_tetra(s);
    const VerticalTetraCoef c = make_vertical_coef(v);
    // Mix of interior points and exact vertex/edge hits.
    Vec2 xi;
    switch (i % 3) {
      case 0:
        xi = {(v[0].x + v[1].x + v[2].x + v[3].x) * 0.25,
              (v[0].y + v[1].y + v[2].y + v[3].y) * 0.25};
        break;
      case 1: xi = {v[i % 4].x, v[i % 4].y}; break;
      default:
        xi = {0.5 * (v[0].x + v[3].x), 0.5 * (v[0].y + v[3].y)};
        break;
    }
    double sp[6];
    coef_edge_products(c, xi, sp);
    const VerticalSpan span = coef_vertical_span(c, sp);
    const LineTetraHit aos = line_tetra_vertical(xi, v);
    if (span.degenerate && aos.degenerate) {
      ++both_degenerate;
      continue;
    }
    if (span.degenerate || aos.degenerate ||
        span.intersects != aos.intersects) {
      EXPECT_NE(i % 3, 0) << "interior ray, tetra " << i;
      continue;
    }
    if (!span.intersects) continue;
    ++both_clean;
    // Off the silhouette's edges the crossed faces are unambiguous; on an
    // edge the two faces sharing it meet at the same height.
    if (i % 3 == 0) {
      EXPECT_EQ(span.enter_face, aos.enter_face) << "tetra " << i;
      EXPECT_EQ(span.exit_face, aos.exit_face) << "tetra " << i;
    }
    EXPECT_NEAR(span.z_enter, aos.t_enter,
                1e-12 * (1.0 + std::abs(aos.t_enter)));
    EXPECT_NEAR(span.z_exit, aos.t_exit, 1e-12 * (1.0 + std::abs(aos.t_exit)));
    // The march's per-step exit test agrees with the span it continues.
    const VerticalExit ve = coef_vertical_exit(c, sp, span.enter_face);
    EXPECT_TRUE(ve.found && !ve.degenerate) << "tetra " << i;
    EXPECT_EQ(ve.exit_face, span.exit_face) << "tetra " << i;
    EXPECT_EQ(ve.z_exit, span.z_exit) << "tetra " << i;
  }
  // The fixture must actually exercise both regimes.
  EXPECT_GT(both_clean, 300);
  EXPECT_GT(both_degenerate, 100);
}

engine::FieldCube fixture_cube() {
  HaloModelOptions gen;
  gen.n_particles = 6000;
  gen.box_length = 10.0;
  gen.n_halos = 6;
  gen.seed = 7;
  const auto set = generate_halo_model(gen);
  return engine::FieldCube(set.positions, set.particle_mass);
}

FieldSpec small_spec() {
  FieldSpec spec;
  spec.origin = {1.0, 1.0};
  spec.length = 8.0;
  spec.resolution = 24;
  spec.zmin = 1.0;
  spec.zmax = 9.0;
  return spec;
}

// The per-visit entries (TetraGeomDirect / FieldCoefDirect) are the table
// entries, bit for bit, on every cell a march can reach.
TEST(MarchTables, DirectEntriesEqualTableEntries) {
  const engine::FieldCube cube = fixture_cube();
  const Triangulation& tri = cube.triangulation();
  const TetraGeomTable& table = *cube.geom_table();
  const FieldCoefTable field_table(cube.density());
  const TetraGeomDirect direct(tri);
  const FieldCoefDirect field_direct(cube.density());
  std::size_t compared = 0;
  for (std::size_t i = 0; i < tri.cell_storage_size(); ++i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c) || tri.is_infinite(c)) continue;
    const VerticalTetraCoef a = direct.coef(c);
    ASSERT_EQ(std::memcmp(&a, &table.coef(c), sizeof a), 0) << "cell " << c;
    const CellInterpolant k = field_direct.at(c);
    ASSERT_EQ(std::memcmp(&k, &field_table.at(c), sizeof k), 0) << "cell " << c;
    for (int f = 0; f < 4; ++f) {
      ASSERT_EQ(direct.next(c, f), table.next(c, f)) << "cell " << c;
      if (table.next(c, f) != Triangulation::kNoCell) {
        ASSERT_EQ(direct.mirror(c, f), table.mirror(c, f)) << "cell " << c;
      }
    }
    ++compared;
  }
  EXPECT_GT(compared, 10000u);
  // The cube builds its table once and hands the same one out.
  EXPECT_EQ(cube.geom_table().get(), &table);
}

// A render too small to repay the tables marches the per-visit entries;
// the grid and ray statistics are bitwise those of the table march in every
// integration mode.
TEST(MarchTables, RenderBitwiseWithAndWithoutTables) {
  const engine::FieldCube cube = fixture_cube();
  const std::size_t cells = cube.triangulation().num_cells();
  struct Mode {
    int mc, z_samples, adaptive;
    std::size_t resolution;
  };
  for (const Mode m : {Mode{1, 0, 0, 24}, Mode{4, 0, 0, 12},
                       Mode{1, 32, 0, 24}, Mode{1, 0, 2, 12}}) {
    FieldSpec spec = small_spec();
    spec.resolution = m.resolution;
    MarchingOptions opt;
    opt.monte_carlo_samples = m.mc;
    opt.z_samples = m.z_samples;
    opt.adaptive_max_depth = m.adaptive;
    ASSERT_FALSE(MarchingKernel::tables_pay_off(spec, opt, cells));
    const MarchingKernel tables(cube.density(), cube.hull(), opt,
                                cube.geom_table());
    const MarchingKernel direct(cube.density(), cube.hull(), opt);
    const Grid2D gt = tables.render(spec);
    const Grid2D gd = direct.render(spec);
    ASSERT_EQ(gt.size(), gd.size());
    for (std::size_t i = 0; i < gt.size(); ++i)
      ASSERT_EQ(gt.flat(i), gd.flat(i)) << "cell " << i << " mc " << m.mc;
    EXPECT_EQ(tables.stats().tetra_crossed, direct.stats().tetra_crossed);
    EXPECT_EQ(tables.stats().perturb_restarts, direct.stats().perturb_restarts);
    // An OpenMP reduction: its summation order varies run to run.
    EXPECT_NEAR(tables.stats().ray_mass, direct.stats().ray_mass,
                1e-12 * tables.stats().ray_mass);
  }
}

TEST(MarchTables, IntegrateLineBitwiseWithAndWithoutTables) {
  const engine::FieldCube cube = fixture_cube();
  const MarchingKernel tables(cube.density(), cube.hull(), {},
                              cube.geom_table());
  const MarchingKernel direct(cube.density(), cube.hull());
  std::uint64_t s = 99;
  for (int i = 0; i < 200; ++i) {
    const Vec2 xi{1.0 + 8.0 * unit(s), 1.0 + 8.0 * unit(s)};
    ASSERT_EQ(tables.integrate_line(xi, 1.0, 9.0),
              direct.integrate_line(xi, 1.0, 9.0))
        << "xi " << xi.x << " " << xi.y;
  }
}

TEST(MarchTables, PayOffOnceRaysCrossMoreCellsThanTheMeshHolds) {
  // Pipeline item: 32^2 rays through a 240k-cell halo cube — no tables.
  EXPECT_FALSE(march_tables_pay_off(1024, 240000));
  // Small item of the same render: each cell is crossed more than once.
  EXPECT_TRUE(march_tables_pay_off(1024, 20000));
  // Whole-box 2048^2 map of a 260k-cell mesh.
  EXPECT_TRUE(march_tables_pay_off(2048 * 2048, 260000));
}

}  // namespace
}  // namespace dtfe
