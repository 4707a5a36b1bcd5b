// Remaining coverage: CLI parsing, hull-projection entry faces, marching
// failure injection, and pipeline option edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>

#include "core/dtfe.h"
#include "util/cli.h"
#include "util/rng.h"

namespace dtfe {
namespace {

// ---------------- CLI parsing ------------------------------------------------

TEST(CliArgs, ParsesPairsAndEquals) {
  const char* argv[] = {"prog", "cmd", "--alpha", "1.5", "--name=web",
                        "--count", "42"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_DOUBLE_EQ(args.get("alpha", 0.0), 1.5);
  EXPECT_EQ(args.get("name", std::string{}), "web");
  EXPECT_EQ(args.get("count", 0L), 42L);
  EXPECT_EQ(args.get("missing", 7L), 7L);
  EXPECT_EQ(args.get("missing", std::string{"x"}), "x");

  // Numbers must be consumed in full, in range and finite; the error names
  // the flag. A malformed value is never read as its prefix or as 0.
  const char* bad[] = {"prog",   "cmd",        "--grid",  "64x",
                       "--ranks", "abc",       "--box",   "1.5e",
                       "--big",  "99999999999999999999999",
                       "--huge", "1e999",      "--inf",   "inf",
                       "--nan",  "nan",        "--empty=", "--neg",
                       "-3",     "--sci",      "2.5e1"};
  const CliArgs strict(static_cast<int>(std::size(bad)),
                       const_cast<char**>(bad));
  for (const char* key : {"grid", "ranks", "big", "empty"}) {
    try {
      (void)strict.get(key, 0L);
      ADD_FAILURE() << "--" << key << " parsed as an integer";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key),
                std::string::npos)
          << e.what();
    }
  }
  for (const char* key : {"grid", "box", "huge", "inf", "nan", "empty"})
    EXPECT_THROW(strict.get(key, 0.0), Error) << "--" << key;
  EXPECT_EQ(strict.get("neg", 0L), -3L);
  EXPECT_DOUBLE_EQ(strict.get("sci", 0.0), 25.0);
  EXPECT_THROW(strict.get("sci", 0L), Error);  // not an integer
}

TEST(CliArgs, RejectsMalformedInput) {
  const char* bad1[] = {"prog", "cmd", "value-without-flag"};
  EXPECT_THROW(CliArgs(3, const_cast<char**>(bad1)), Error);
  const char* bad2[] = {"prog", "cmd", "--flag"};
  EXPECT_THROW(CliArgs(3, const_cast<char**>(bad2)), Error);
}

TEST(CliArgs, CheckKnownCatchesTypos) {
  const char* argv[] = {"prog", "cmd", "--grdi", "64"};
  CliArgs args(4, const_cast<char**>(argv));
  EXPECT_THROW(args.check_known({"grid", "out"}), Error);
  const char* ok[] = {"prog", "cmd", "--grid", "64"};
  CliArgs args2(4, const_cast<char**>(ok));
  EXPECT_NO_THROW(args2.check_known({"grid", "out"}));
}

// ---------------- hull projection entry faces ----------------------------------

TEST(HullProjection, EntryFaceIsTheDownwardHullFacet) {
  Rng rng(3);
  std::vector<Vec3> pts(150);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  Triangulation tri(pts);
  HullProjection hull(tri);
  int tested = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Vec2 xi{rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)};
    const auto entry = hull.first_entry(xi);
    if (entry.cell == Triangulation::kNoCell) continue;
    ++tested;
    // The entry face's neighbor must be an infinite cell (it IS the hull
    // facet) and the vertical line must cross it first.
    const CellId nb = tri.cell(entry.cell).n[entry.entry_face];
    EXPECT_TRUE(tri.is_infinite(nb));
    const auto hit = line_tetra_vertical(xi, tri.cell_points(entry.cell));
    if (hit.intersects && !hit.degenerate)
      EXPECT_EQ(hit.enter_face, entry.entry_face);
  }
  EXPECT_GT(tested, 150);
}

TEST(HullProjection, WalkLocatorAgreesWithBuckets) {
  // The paper's walk-based 2D locator and the grid-bucket locator must
  // agree everywhere (including outside-silhouette verdicts).
  Rng rng(17);
  std::vector<Vec3> pts(400);
  for (auto& p : pts) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  Triangulation tri(pts);
  HullProjection hull(tri);
  std::ptrdiff_t hint = -1;
  std::uint64_t wrng = 1;
  int inside = 0, outside = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const Vec2 xi{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)};
    const auto a = hull.first_entry(xi);
    const auto b = hull.first_entry_walk(xi, hint, wrng);
    ASSERT_EQ(a.cell == Triangulation::kNoCell,
              b.cell == Triangulation::kNoCell)
        << "iter " << iter;
    if (a.cell == Triangulation::kNoCell) {
      ++outside;
      continue;
    }
    ++inside;
    // Ties on shared facet edges may resolve to either incident facet; both
    // must still name a cell whose hull facet the line enters.
    if (a.cell != b.cell) {
      const auto hit = line_tetra_vertical(xi, tri.cell_points(b.cell));
      EXPECT_TRUE(hit.intersects || hit.degenerate);
    } else {
      EXPECT_EQ(a.entry_face, b.entry_face);
    }
  }
  EXPECT_GT(inside, 300);
  EXPECT_GT(outside, 100);
}

// ---------------- marching failure injection ------------------------------------

TEST(MarchingKernel, RetryCapCountsFailuresWithoutCrashing) {
  // An exact lattice makes MANY rays degenerate; with a castrated retry
  // budget the kernel must report failures and still return finite fields.
  const auto set = generate_lattice(6, 1.0, 0.0, 1);
  const Reconstructor recon(set.positions, 1.0);
  MarchingOptions opt;
  opt.max_perturb_retries = 1;
  opt.perturb_epsilon = 0.0;  // perturbation disabled: degeneracy persists
  const MarchingKernel kernel(recon.density(), recon.hull(), opt);
  FieldSpec spec;
  spec.origin = {0.0, 0.0};
  spec.length = 1.0;
  spec.resolution = 12;  // cell centers align with lattice planes often
  const Grid2D map = kernel.render(spec);
  for (const double v : map.values()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(kernel.stats().perturb_restarts, 0u);
}

TEST(MarchingKernel, PerturbationRecoversLatticeRays) {
  // Same lattice, sane retry budget: everything recovers.
  const auto set = generate_lattice(6, 1.0, 0.0, 1);
  const Reconstructor recon(set.positions, 1.0);
  const MarchingKernel kernel(recon.density(), recon.hull());
  FieldSpec spec;
  spec.origin = {0.1, 0.1};
  spec.length = 0.8;
  spec.resolution = 12;
  const Grid2D map = kernel.render(spec);
  EXPECT_EQ(kernel.stats().failed_cells, 0u);
  const double mass = map.sum() * spec.cell_size() * spec.cell_size();
  EXPECT_GT(mass, 0.0);
}

// ---------------- pipeline option edges --------------------------------------------

TEST(Pipeline, NoRequestsAtAll) {
  const auto set = generate_uniform(3000, 10.0, 5);
  PipelineOptions opt;
  opt.field_length = 2.0;
  opt.field_resolution = 8;
  simmpi::run(3, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, {}, opt);
    EXPECT_EQ(res.items.size(), 0u);
    EXPECT_EQ(res.items_sent, 0u);
    EXPECT_DOUBLE_EQ(res.predicted_local_time, 0.0);
  });
}

TEST(Pipeline, RequestCentersOutsideBoxAreWrapped) {
  const auto set = generate_uniform(5000, 10.0, 6);
  std::vector<Vec3> centers = {{-1.0, 5.0, 5.0}, {11.0, 5.0, 5.0}};
  PipelineOptions opt;
  opt.field_length = 2.0;
  opt.field_resolution = 8;
  opt.keep_grids = true;
  simmpi::run(2, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const double total = c.allreduce_sum(static_cast<double>(res.items.size()));
    EXPECT_DOUBLE_EQ(total, 2.0);
    for (const auto& it : res.items) {
      EXPECT_GE(it.center.x, 0.0);
      EXPECT_LT(it.center.x, 10.0);
      EXPECT_GT(it.n_particles, 0.0);
    }
  });
}

TEST(FieldSpec, CenteredHelperGeometry) {
  const FieldSpec s = FieldSpec::centered({10, 20, 30}, 4.0, 16);
  EXPECT_DOUBLE_EQ(s.origin.x, 8.0);
  EXPECT_DOUBLE_EQ(s.origin.y, 18.0);
  EXPECT_DOUBLE_EQ(s.zmin, 28.0);
  EXPECT_DOUBLE_EQ(s.zmax, 32.0);
  EXPECT_DOUBLE_EQ(s.cell_size(), 0.25);
  const Vec2 c = s.cell_center(0, 15);
  EXPECT_DOUBLE_EQ(c.x, 8.125);
  EXPECT_DOUBLE_EQ(c.y, 21.875);
  EXPECT_EQ(s.nx(), 16u);
  EXPECT_EQ(s.ny(), 16u);
  FieldSpec r = s;
  r.resolution_y = 32;
  EXPECT_EQ(r.ny(), 32u);
}

}  // namespace
}  // namespace dtfe
