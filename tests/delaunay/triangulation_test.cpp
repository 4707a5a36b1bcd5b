#include "delaunay/triangulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "dtfe/density.h"
#include "geometry/predicates.h"
#include "geometry/tetra_math.h"
#include "util/error.h"
#include "util/rng.h"

namespace dtfe {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed,
                                double lo = 0.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (auto& p : pts)
    p = {rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)};
  return pts;
}

TEST(Triangulation, SingleTetra) {
  const std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_EQ(tri.finite_cells().size(), 1u);
  EXPECT_EQ(tri.infinite_cells().size(), 4u);
  EXPECT_EQ(tri.num_unique_vertices(), 4u);
}

TEST(Triangulation, FivePointsInteriorPoint) {
  // 4 corners + strictly interior point → 4 finite tets.
  const std::vector<Vec3> pts = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0.2, 0.2, 0.2}};
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_EQ(tri.finite_cells().size(), 4u);
}

TEST(Triangulation, FivePointsOutsideHull) {
  const std::vector<Vec3> pts = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {2.0, 2.0, 2.0}};
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_GE(tri.finite_cells().size(), 2u);
}

TEST(Triangulation, RandomPointsAreDelaunay) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto pts = random_points(120, seed);
    Triangulation tri(pts);
    tri.validate(/*check_delaunay=*/true);
  }
}

TEST(Triangulation, RandomWithoutSpatialSort) {
  auto pts = random_points(120, 9);
  Triangulation::Options opt;
  opt.spatial_sort = false;
  Triangulation tri(pts, opt);
  tri.validate(true);
}

TEST(Triangulation, GridPointsHighlyDegenerate) {
  // Integer grid: massively cospherical/coplanar configurations exercise the
  // exact predicate fallbacks and the coplanar hull-conflict rule.
  std::vector<Vec3> pts;
  for (int x = 0; x < 5; ++x)
    for (int y = 0; y < 5; ++y)
      for (int z = 0; z < 5; ++z) pts.push_back({double(x), double(y), double(z)});
  Triangulation tri(pts);
  tri.validate(/*check_delaunay=*/true);
  EXPECT_EQ(tri.num_unique_vertices(), 125u);
  // The convex hull of the 5³ grid is the cube; total volume of all finite
  // tetras must be 4³.
  double vol = 0.0;
  for (const CellId c : tri.finite_cells()) {
    const auto p = tri.cell_points(c);
    vol += tetra_volume(p[0], p[1], p[2], p[3]);
  }
  EXPECT_NEAR(vol, 64.0, 1e-9);
}

TEST(Triangulation, DuplicatePointsAreMapped) {
  auto pts = random_points(50, 4);
  pts.push_back(pts[10]);
  pts.push_back(pts[20]);
  pts.push_back(pts[10]);
  Triangulation tri(pts);
  tri.validate(true);
  EXPECT_EQ(tri.num_unique_vertices(), 50u);
  EXPECT_TRUE(tri.is_duplicate(50));
  EXPECT_EQ(tri.duplicate_of(50), 10);
  EXPECT_EQ(tri.duplicate_of(51), 20);
  EXPECT_EQ(tri.duplicate_of(52), 10);
  EXPECT_EQ(tri.duplicate_of(5), 5);
}

TEST(Triangulation, CollinearStartThenFull) {
  // The first points are collinear/coplanar: initial simplex search must
  // skip past them.
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0},
                           {0, 1, 0}, {1, 2, 0}, {0.3, 0.3, 2.0}};
  Triangulation::Options opt;
  opt.spatial_sort = false;
  Triangulation tri(pts, opt);
  tri.validate(true);
  EXPECT_EQ(tri.num_unique_vertices(), 7u);
}

TEST(Triangulation, ThrowsOnDegenerateInputs) {
  EXPECT_THROW(Triangulation(std::vector<Vec3>{{0, 0, 0}, {1, 1, 1}}), Error);
  // all coplanar
  std::vector<Vec3> plane;
  for (int i = 0; i < 10; ++i)
    plane.push_back({double(i), double(i * i % 7), 0.0});
  EXPECT_THROW(Triangulation{plane}, Error);
  // all collinear
  std::vector<Vec3> line;
  for (int i = 0; i < 8; ++i) line.push_back({double(i), double(2 * i), double(-i)});
  EXPECT_THROW(Triangulation{line}, Error);
  // all identical
  std::vector<Vec3> same(6, Vec3{1, 2, 3});
  EXPECT_THROW(Triangulation{same}, Error);
}

TEST(Triangulation, LocateInsideEveryCell) {
  auto pts = random_points(80, 12);
  Triangulation tri(pts);
  Rng rng(55);
  for (const CellId c : tri.finite_cells()) {
    const auto p = tri.cell_points(c);
    // Random strictly interior point via barycentric mix.
    double w[4] = {rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                   rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)};
    const double ws = w[0] + w[1] + w[2] + w[3];
    Vec3 q{0, 0, 0};
    for (int i = 0; i < 4; ++i) q += p[static_cast<std::size_t>(i)] * (w[i] / ws);
    const auto loc = tri.locate(q);
    ASSERT_EQ(loc.status, Triangulation::LocateStatus::kInside);
    // q must be inside (or on boundary of) the reported cell.
    const auto lp = tri.cell_points(loc.cell);
    for (int f = 0; f < 4; ++f) {
      EXPECT_LE(orient3d(lp[kTetraFace[f][0]], lp[kTetraFace[f][1]],
                         lp[kTetraFace[f][2]], q),
                0.0);
    }
  }
}

TEST(Triangulation, LocateOutsideHull) {
  auto pts = random_points(60, 13);
  Triangulation tri(pts);
  const auto loc = tri.locate({5.0, 5.0, 5.0});
  EXPECT_EQ(loc.status, Triangulation::LocateStatus::kOutsideHull);
  EXPECT_TRUE(tri.is_infinite(loc.cell));
}

TEST(Triangulation, LocateOnVertex) {
  auto pts = random_points(60, 14);
  Triangulation tri(pts);
  for (VertexId v : {0, 17, 59}) {
    const auto loc = tri.locate(pts[static_cast<std::size_t>(v)]);
    ASSERT_EQ(loc.status, Triangulation::LocateStatus::kOnVertex);
    EXPECT_EQ(loc.vertex, v);
  }
}

TEST(Triangulation, IncidentCellIsIncident) {
  auto pts = random_points(100, 15);
  Triangulation tri(pts);
  for (std::size_t v = 0; v < pts.size(); ++v) {
    const CellId c = tri.incident_cell(static_cast<VertexId>(v));
    ASSERT_NE(c, Triangulation::kNoCell);
    EXPECT_TRUE(tri.cell_alive(c));
    EXPECT_GE(tri.index_of(c, static_cast<VertexId>(v)), 0);
  }
}

TEST(Triangulation, EulerCharacteristicOnRandomInput) {
  // For a 3D triangulation of a convex region including the infinite vertex,
  // the one-point compactification is a triangulated 3-sphere:
  // V − E + F − T = 0, with V counting the infinite vertex.
  auto pts = random_points(150, 21);
  Triangulation tri(pts);

  std::set<std::pair<VertexId, VertexId>> edges;
  std::set<std::array<VertexId, 3>> faces;
  std::size_t ncells = 0;
  for (std::size_t i = 0; i < tri.cell_storage_size(); ++i) {
    const CellId c = static_cast<CellId>(i);
    if (!tri.cell_alive(c)) continue;
    ++ncells;
    const auto& t = tri.cell(c);
    for (int a = 0; a < 4; ++a)
      for (int b = a + 1; b < 4; ++b)
        edges.insert({std::min(t.v[a], t.v[b]), std::max(t.v[a], t.v[b])});
    for (int f = 0; f < 4; ++f) {
      std::array<VertexId, 3> fv = {t.v[kTetraFace[f][0]],
                                    t.v[kTetraFace[f][1]],
                                    t.v[kTetraFace[f][2]]};
      std::sort(fv.begin(), fv.end());
      faces.insert(fv);
    }
  }
  const std::ptrdiff_t V = static_cast<std::ptrdiff_t>(tri.num_unique_vertices()) + 1;
  const auto E = static_cast<std::ptrdiff_t>(edges.size());
  const auto F = static_cast<std::ptrdiff_t>(faces.size());
  const auto T = static_cast<std::ptrdiff_t>(ncells);
  EXPECT_EQ(V - E + F - T, 0);
  // Each facet is shared by exactly two cells.
  EXPECT_EQ(2 * F, 4 * T);
}

TEST(Triangulation, ClusteredPointsStressTest) {
  // Dense Gaussian blob plus sparse background — the N-body-like regime.
  Rng rng(31);
  std::vector<Vec3> pts;
  for (int i = 0; i < 300; ++i)
    pts.push_back({0.5 + 0.02 * rng.normal(), 0.5 + 0.02 * rng.normal(),
                   0.5 + 0.02 * rng.normal()});
  for (int i = 0; i < 100; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  Triangulation tri(pts);
  tri.validate(/*check_delaunay=*/true);
}

TEST(Triangulation, CosphericalShellPoints) {
  // Many points on (near) a common sphere: worst case for insphere ties.
  Rng rng(77);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i) {
    Vec3 v{rng.normal(), rng.normal(), rng.normal()};
    v = v.normalized();
    // snap to a coarse lattice to force exact cosphericality often
    auto snap = [](double x) { return std::round(x * 64.0) / 64.0; };
    pts.push_back({snap(v.x), snap(v.y), snap(v.z)});
  }
  pts.push_back({0, 0, 0});
  Triangulation tri(pts);
  tri.validate(/*check_delaunay=*/true);
}

// --- insertion-order invariance ---------------------------------------------
//
// The symbolic perturbation ranks points by position, not by insertion, so
// the Delaunay tessellation of a point set is unique even where it is
// cospherical: BRIO order, input order and any permutation of the input must
// give the same cells. Cells are compared by the coordinates of their
// vertices, so input indices (which a shuffle changes) do not enter.

using CellQuad = std::array<std::tuple<double, double, double>, 4>;

std::vector<CellQuad> finite_cell_set(const Triangulation& tri) {
  std::vector<CellQuad> out;
  for (const CellId c : tri.finite_cells()) {
    CellQuad q;
    const auto p = tri.cell_points(c);
    for (std::size_t s = 0; s < 4; ++s) q[s] = {p[s].x, p[s].y, p[s].z};
    std::sort(q.begin(), q.end());
    out.push_back(q);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_order_invariant(const std::vector<Vec3>& pts, std::uint64_t seed) {
  const Triangulation brio(pts);
  brio.validate(/*check_delaunay=*/false);
  Triangulation::Options input_order;
  input_order.spatial_sort = false;
  const Triangulation plain(pts, input_order);

  std::vector<Vec3> shuffled = pts;
  Rng rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1], shuffled[rng.uniform_index(i)]);
  const Triangulation perm(shuffled);

  const auto want = finite_cell_set(brio);
  EXPECT_EQ(brio.num_unique_vertices(), plain.num_unique_vertices());
  EXPECT_EQ(brio.num_unique_vertices(), perm.num_unique_vertices());
  EXPECT_EQ(finite_cell_set(plain), want) << "input order changed the cells";
  EXPECT_EQ(finite_cell_set(perm), want) << "a shuffle changed the cells";
}

TEST(Triangulation, CellsInvariantUnderInsertionOrderUniform) {
  expect_order_invariant(random_points(3000, 41), 1);
}

TEST(Triangulation, CellsInvariantUnderInsertionOrderClustered) {
  Rng rng(43);
  std::vector<Vec3> pts;
  for (int h = 0; h < 6; ++h) {
    const Vec3 c{rng.uniform(), rng.uniform(), rng.uniform()};
    const double r = 0.005 * (h + 1);
    for (int i = 0; i < 400; ++i)
      pts.push_back({c.x + r * rng.normal(), c.y + r * rng.normal(),
                     c.z + r * rng.normal()});
  }
  for (int i = 0; i < 600; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  expect_order_invariant(pts, 2);
}

TEST(Triangulation, CellsInvariantUnderInsertionOrderLatticeWithDuplicates) {
  // An exact integer lattice is cospherical everywhere (every unit cube's 8
  // corners share a sphere), so only the symbolic perturbation decides the
  // cells; duplicates re-enter far from their first copy in index order.
  std::vector<Vec3> pts;
  for (int x = 0; x < 10; ++x)
    for (int y = 0; y < 10; ++y)
      for (int z = 0; z < 10; ++z) pts.push_back({double(x), double(y), double(z)});
  Rng rng(47);
  const std::size_t lattice = pts.size();
  for (int i = 0; i < 150; ++i) pts.push_back(pts[rng.uniform_index(lattice)]);
  expect_order_invariant(pts, 3);
}

TEST(Triangulation, DuplicateMapsToLowestCoincidentIndex) {
  // Every coincident group, whatever its size and wherever its copies sit in
  // the input, must map to its lowest index under BRIO and input order
  // alike. Copies written with -0.0 for +0.0 compare equal, so they must be
  // grouped too.
  Rng rng(53);
  std::vector<Vec3> unique = random_points(500, 59);
  for (std::size_t i = 0; i < 40; ++i) {
    // Points on the coordinate planes, for the signed-zero copies below.
    if (i % 3 == 0) unique[i].x = 0.0;
    if (i % 3 == 1) unique[i].y = 0.0;
    if (i % 3 == 2) unique[i].z = 0.0;
  }
  std::vector<Vec3> pts;
  for (const Vec3& p : unique) {
    const int copies = 1 + static_cast<int>(rng.uniform_index(4));
    for (int k = 0; k < copies; ++k) {
      Vec3 q = p;
      if (k % 2 == 1) {
        if (q.x == 0.0) q.x = -0.0;
        if (q.y == 0.0) q.y = -0.0;
        if (q.z == 0.0) q.z = -0.0;
      }
      pts.push_back(q);
    }
  }
  for (std::size_t i = pts.size(); i > 1; --i)
    std::swap(pts[i - 1], pts[rng.uniform_index(i)]);

  // Expected representative: the first index holding each position (-0.0
  // folded onto +0.0 so the map key compares as the predicates do).
  std::map<std::tuple<double, double, double>, VertexId> first;
  std::vector<VertexId> want(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto key = std::make_tuple(pts[i].x + 0.0, pts[i].y + 0.0, pts[i].z + 0.0);
    const auto it = first.emplace(key, static_cast<VertexId>(i)).first;
    want[i] = it->second;
  }
  ASSERT_EQ(first.size(), unique.size());

  for (const bool spatial : {true, false}) {
    Triangulation::Options opt;
    opt.spatial_sort = spatial;
    const Triangulation tri(pts, opt);
    EXPECT_EQ(tri.num_unique_vertices(), unique.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
      ASSERT_EQ(tri.duplicate_of(static_cast<VertexId>(i)), want[i])
          << "index " << i << (spatial ? " (BRIO)" : " (input order)");
  }
}

std::uint64_t ulp_distance(double a, double b) {
  // Both positive and finite here, so the bit patterns order like the values.
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST(Triangulation, VertexDensitiesAgreeAcrossInsertionOrder) {
  // The cells are the same under any order (tests above), but their storage
  // order and the rotation of their vertex lists are not, so each vertex's
  // Σ of incident volumes adds the same terms in another order, each term
  // rounded from another vertex order. That moves a density by a few ulps;
  // the stated bound is 16 ulps (this input shows 6). A cell that differed
  // would move its vertices' densities by far more.
  Rng rng(61);
  std::vector<Vec3> pts;
  for (int i = 0; i < 2000; ++i)
    pts.push_back({0.5 + 0.05 * rng.normal(), 0.5 + 0.05 * rng.normal(),
                   0.5 + 0.05 * rng.normal()});
  for (int i = 0; i < 1000; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});

  const Triangulation brio(pts);
  Triangulation::Options input_order;
  input_order.spatial_sort = false;
  const Triangulation plain(pts, input_order);
  const DensityField a(brio, 1.0);
  const DensityField b(plain, 1.0);

  std::uint64_t worst = 0;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    const double ra = a.vertex_density(static_cast<VertexId>(v));
    const double rb = b.vertex_density(static_cast<VertexId>(v));
    ASSERT_GT(ra, 0.0);
    ASSERT_GT(rb, 0.0);
    worst = std::max(worst, ulp_distance(ra, rb));
  }
  EXPECT_LE(worst, 16u);
}

}  // namespace
}  // namespace dtfe
