// SIMD batching parity suite (ISSUE: SoA tetra coefficient tables).
//
// The MarchingOptions::use_simd contract is that the flag is invisible in
// results: the SIMD evaluation routes (edge-parallel and ray-parallel batch)
// must reproduce the scalar coefficient path BITWISE, per edge product, per
// crossing classification, per rendered grid, and per pipeline checksum —
// including on degenerate (vertex / edge / coplanar-face) hits, where a
// single flipped sign would silently diverge the perturb-retry sequence.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dtfe/march_tables.h"
#include "dtfe/marching_kernel.h"
#include "engine/field_kernel.h"
#include "framework/pipeline.h"
#include "geometry/ray_tetra.h"
#include "geometry/tetra_coef.h"
#include "nbody/generators.h"
#include "simmpi/comm.h"
#include "util/simd.h"

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

// Exact equality assertion for the six edge products of one (tetra, ξ).
void expect_products_identical(const VerticalTetraCoef& c, const Vec2& xi) {
  double ref[6], simd[6];
  coef_edge_products(c, xi, ref);
  coef_edge_products_simd(c, xi, simd);
  for (int e = 0; e < 6; ++e) EXPECT_EQ(ref[e], simd[e]) << "edge " << e;

  double xs[simd::kLanes], ys[simd::kLanes];
  for (int l = 0; l < simd::kLanes; ++l) {
    xs[l] = xi.x;
    ys[l] = xi.y;
  }
  double batch[6][simd::kLanes];
  coef_edge_products_batch(c, xs, ys, batch);
  for (int e = 0; e < 6; ++e)
    for (int l = 0; l < simd::kLanes; ++l)
      EXPECT_EQ(ref[e], batch[e][l]) << "edge " << e << " lane " << l;
}

TEST(SimdParity, EdgeProductsBitwiseOnRandomSoup) {
  std::uint64_t s = 0x5eedULL;
  for (int i = 0; i < 500; ++i) {
    const auto v = random_tetra(s);
    const VerticalTetraCoef c = make_vertical_coef(v);
    // Interior, exterior, and far-away ξ all round identically.
    const Vec2 cen{(v[0].x + v[1].x + v[2].x + v[3].x) * 0.25,
                   (v[0].y + v[1].y + v[2].y + v[3].y) * 0.25};
    expect_products_identical(c, cen);
    expect_products_identical(c, {unit(s) * 20.0 - 5.0, unit(s) * 20.0 - 5.0});
  }
}

TEST(SimdParity, EdgeProductsBitwiseOnDegenerateHits) {
  std::uint64_t s = 0xfeedULL;
  for (int i = 0; i < 200; ++i) {
    auto v = random_tetra(s);
    const VerticalTetraCoef c = make_vertical_coef(v);
    // Vertex hit: ξ exactly on a projected vertex.
    expect_products_identical(c, {v[0].x, v[0].y});
    // Edge hit: ξ exactly on a projected edge midpoint.
    expect_products_identical(
        c, {0.5 * (v[1].x + v[2].x), 0.5 * (v[1].y + v[2].y)});
  }
  // Coplanar vertical face: three vertices xy-colinear, so one face's
  // silhouette is a segment and every product involving it is exactly 0.
  std::array<Vec3, 4> flat = {Vec3{0, 0, 0}, Vec3{1, 1, 0}, Vec3{2, 2, 1},
                              Vec3{0, 3, 2}};
  const VerticalTetraCoef c = make_vertical_coef(flat);
  expect_products_identical(c, {1.0, 1.0});   // on the degenerate face
  expect_products_identical(c, {0.7, 1.2});
}

TEST(SimdParity, CrossingClassificationIdenticalIncludingDegenerate) {
  std::uint64_t s = 0xabcdULL;
  int classified = 0, degenerate = 0;
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
    double ref[6], alt[6];
    coef_edge_products(c, xi, ref);
    coef_edge_products_simd(c, xi, alt);
    const VerticalSpan sr = coef_vertical_span(c, ref);
    const VerticalSpan sa = coef_vertical_span(c, alt);
    EXPECT_EQ(sr.intersects, sa.intersects);
    EXPECT_EQ(sr.degenerate, sa.degenerate);
    EXPECT_EQ(sr.enter_face, sa.enter_face);
    EXPECT_EQ(sr.exit_face, sa.exit_face);
    EXPECT_EQ(sr.z_enter, sa.z_enter);
    EXPECT_EQ(sr.z_exit, sa.z_exit);
    if (sr.degenerate) ++degenerate;
    if (sr.intersects && !sr.degenerate) {
      ++classified;
      const VerticalExit er = coef_vertical_exit(c, ref, sr.enter_face);
      const VerticalExit ea = coef_vertical_exit(c, alt, sr.enter_face);
      EXPECT_EQ(er.found, ea.found);
      EXPECT_EQ(er.degenerate, ea.degenerate);
      EXPECT_EQ(er.exit_face, ea.exit_face);
      EXPECT_EQ(er.z_exit, ea.z_exit);
    }
  }
  // The fixture must actually exercise both regimes.
  EXPECT_GT(classified, 300);
  EXPECT_GT(degenerate, 100);
}

// The coefficient form is allowed to round ~1 ulp away from the direct AoS
// geometry (which is why the table path is production for BOTH simd modes
// and the AoS path is the ablation oracle) — but on clean crossings the
// classification must agree and the heights must match to ~1e-12 relative.
TEST(SimdParity, CoefMatchesAosOracleWithinTolerance) {
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

TEST(SimdParity, RenderBitwiseAcrossOnOff) {
  const engine::FieldCube cube = fixture_cube();
  const FieldSpec spec = small_spec();
  for (const int mc : {1, 4}) {
    MarchingOptions opt;
    opt.monte_carlo_samples = mc;
    opt.use_simd = SimdMode::kOn;
    const MarchingKernel on(cube.density(), cube.hull(), opt,
                            cube.geom_table());
    opt.use_simd = SimdMode::kOff;
    const MarchingKernel off(cube.density(), cube.hull(), opt,
                             cube.geom_table());
    // kOn engages the tiled schedule whether or not the build has a native
    // ISA (scalar lanes otherwise), so this also proves tile-vs-per-ray
    // scheduling equivalence.
    EXPECT_TRUE(on.simd_active());
    EXPECT_FALSE(off.simd_active());
    const Grid2D gon = on.render(spec);
    const Grid2D goff = off.render(spec);
    ASSERT_EQ(gon.size(), goff.size());
    for (std::size_t i = 0; i < gon.size(); ++i)
      ASSERT_EQ(gon.flat(i), goff.flat(i)) << "cell " << i << " mc " << mc;
    // Ray statistics must agree too — identical walks, identical retries.
    EXPECT_EQ(on.stats().tetra_crossed, off.stats().tetra_crossed);
    EXPECT_EQ(on.stats().perturb_restarts, off.stats().perturb_restarts);
    EXPECT_EQ(on.stats().failed_cells, off.stats().failed_cells);
  }
}

TEST(SimdParity, ZSamplesModeBitwiseAcrossOnOff) {
  const engine::FieldCube cube = fixture_cube();
  const FieldSpec spec = small_spec();
  MarchingOptions opt;
  opt.z_samples = 32;
  opt.use_simd = SimdMode::kOn;
  const MarchingKernel on(cube.density(), cube.hull(), opt, cube.geom_table());
  opt.use_simd = SimdMode::kOff;
  const MarchingKernel off(cube.density(), cube.hull(), opt,
                           cube.geom_table());
  const Grid2D gon = on.render(spec);
  const Grid2D goff = off.render(spec);
  for (std::size_t i = 0; i < gon.size(); ++i)
    ASSERT_EQ(gon.flat(i), goff.flat(i)) << "cell " << i;
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
// the grid and ray statistics are bitwise those of the table march, on
// both schedules and in every integration mode.
TEST(MarchTables, RenderBitwiseWithAndWithoutTables) {
  const engine::FieldCube cube = fixture_cube();
  const std::size_t cells = cube.triangulation().num_cells();
  struct Mode {
    int mc, z_samples, adaptive;
    std::size_t resolution;
  };
  for (const Mode m : {Mode{1, 0, 0, 24}, Mode{4, 0, 0, 12},
                       Mode{1, 32, 0, 24}, Mode{1, 0, 2, 12}})
    for (const SimdMode simd : {SimdMode::kOn, SimdMode::kOff}) {
      FieldSpec spec = small_spec();
      spec.resolution = m.resolution;
      MarchingOptions opt;
      opt.monte_carlo_samples = m.mc;
      opt.z_samples = m.z_samples;
      opt.adaptive_max_depth = m.adaptive;
      opt.use_simd = simd;
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
      EXPECT_EQ(tables.stats().perturb_restarts,
                direct.stats().perturb_restarts);
      EXPECT_EQ(tables.stats().simd_batch_lanes,
                direct.stats().simd_batch_lanes);
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

void expect_pipeline_checksums_equal(FieldKind field) {
  HaloModelOptions hopt;
  hopt.n_particles = 20000;
  hopt.box_length = 16.0;
  hopt.n_halos = 8;
  hopt.seed = 21;
  const ParticleSet set = generate_halo_model(hopt);
  std::vector<Vec3> centers;
  std::uint64_t s = 5;
  for (int i = 0; i < 6; ++i)
    centers.push_back(set.positions[xorshift(s) % set.positions.size()]);

  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.keep_grids = true;
  opt.field = field;

  std::vector<double> sums_on, sums_off;
  for (const SimdMode mode : {SimdMode::kOn, SimdMode::kOff}) {
    opt.use_simd = mode;
    // Rank threads run concurrently: collect per rank, concatenate in rank
    // order afterwards so the comparison is deterministic.
    std::vector<std::vector<double>> by_rank(2);
    simmpi::run(2, [&](simmpi::Comm& c) {
      const PipelineResult res = run_pipeline(c, set, centers, opt);
      std::vector<double>& sums = by_rank[static_cast<std::size_t>(c.rank())];
      for (const FieldGrid& g : res.grids)
        for (std::size_t p = 0; p < g.channels(); ++p) {
          double sum = 0.0;
          for (const double v : g.plane(p).values()) sum += v;
          sums.push_back(sum);
        }
    });
    std::vector<double>& sums = mode == SimdMode::kOn ? sums_on : sums_off;
    for (const auto& r : by_rank) sums.insert(sums.end(), r.begin(), r.end());
  }
  ASSERT_FALSE(sums_on.empty());
  ASSERT_EQ(sums_on.size(), sums_off.size());
  for (std::size_t i = 0; i < sums_on.size(); ++i)
    EXPECT_EQ(sums_on[i], sums_off[i]) << "grid " << i;
}

TEST(SimdParity, PipelineChecksumsEqualDensity) {
  expect_pipeline_checksums_equal(FieldKind::kDensity);
}

TEST(SimdParity, PipelineChecksumsEqualVelocity) {
  expect_pipeline_checksums_equal(FieldKind::kVelocity);
}

}  // namespace
}  // namespace dtfe
