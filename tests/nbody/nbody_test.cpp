#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "nbody/fof.h"
#include "nbody/generators.h"
#include "nbody/snapshot_io.h"
#include "util/error.h"
#include "util/fft.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dtfe {
namespace {

TEST(Fft, RoundTrip1d) {
  Rng rng(1);
  std::vector<std::complex<double>> data(256);
  for (auto& c : data) c = {rng.normal(), rng.normal()};
  const auto orig = data;
  fft_1d(data, false);
  fft_1d(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, SingleModeFrequency) {
  // A pure cosine at mode k should produce two spikes at bins k and N−k.
  const std::size_t n = 64;
  std::vector<std::complex<double>> data(n);
  const std::size_t k = 5;
  for (std::size_t i = 0; i < n; ++i)
    data[i] = std::cos(2.0 * M_PI * static_cast<double>(k * i) / n);
  fft_1d(data, false);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = (i == k || i == n - k) ? n / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(data[i]), expected, 1e-9) << "bin " << i;
  }
}

TEST(Fft, RoundTrip3d) {
  Rng rng(2);
  ComplexGrid3D g(8);
  std::vector<std::complex<double>> orig;
  for (auto& c : g.flat()) {
    c = {rng.normal(), rng.normal()};
    orig.push_back(c);
  }
  g.transform(false);
  g.transform(true);
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_NEAR(g.flat()[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(g.flat()[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(3);
  std::vector<std::complex<double>> data(128);
  double time_energy = 0.0;
  for (auto& c : data) {
    c = {rng.normal(), rng.normal()};
    time_energy += std::norm(c);
  }
  fft_1d(data, false);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * 128.0, 1e-6 * freq_energy);
}

TEST(Generators, UniformInBox) {
  const auto set = generate_uniform(5000, 42.0, 7);
  EXPECT_EQ(set.size(), 5000u);
  for (const Vec3& p : set.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 42.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 42.0);
    EXPECT_GE(p.z, 0.0);
    EXPECT_LT(p.z, 42.0);
  }
}

TEST(Generators, LatticeSpacingAndJitter) {
  const auto set = generate_lattice(8, 16.0, 0.0, 1);
  EXPECT_EQ(set.size(), 512u);
  // no jitter → distinct lattice sites with spacing 2
  std::set<long long> keys;
  for (const Vec3& p : set.positions)
    keys.insert(llround(p.x * 100) * 1000000 + llround(p.y * 100) * 1000 +
                llround(p.z * 100));
  EXPECT_EQ(keys.size(), 512u);
}

TEST(Generators, ZeldovichClustersRelativeToUniform) {
  // Clustering proxy: variance of counts-in-cells should exceed Poisson.
  ZeldovichOptions opt;
  opt.grid = 32;
  opt.box_length = 100.0;
  opt.growth = 4.0;
  opt.spectrum.amplitude = 8.0;
  const auto zel = generate_zeldovich(opt);
  ASSERT_EQ(zel.size(), 32u * 32u * 32u);
  for (const Vec3& p : zel.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 100.0);
  }

  auto cic_variance = [](const ParticleSet& s, std::size_t cells) {
    std::vector<double> counts(cells * cells * cells, 0.0);
    const double inv = static_cast<double>(cells) / s.box_length;
    for (const Vec3& p : s.positions) {
      auto c = [&](double v) {
        return std::min(static_cast<std::size_t>(v * inv), cells - 1);
      };
      counts[(c(p.z) * cells + c(p.y)) * cells + c(p.x)] += 1.0;
    }
    RunningStats st;
    for (double v : counts) st.add(v);
    return st.variance() / std::max(st.mean(), 1e-9);  // Poisson ⇒ ≈ 1
  };

  const auto uni = generate_uniform(zel.size(), 100.0, 3);
  const double vz = cic_variance(zel, 8);
  const double vu = cic_variance(uni, 8);
  EXPECT_GT(vz, 3.0 * vu);
}

TEST(Generators, HaloModelConcentratesMass) {
  HaloModelOptions opt;
  opt.n_particles = 20000;
  opt.n_halos = 16;
  opt.background_fraction = 0.2;
  const auto set = generate_halo_model(opt);
  EXPECT_EQ(set.size(), 20000u);
  // Strong clustering: the densest 1% of cells should hold >20% of particles.
  const std::size_t cells = 16;
  std::vector<std::size_t> counts(cells * cells * cells, 0);
  const double inv = static_cast<double>(cells) / set.box_length;
  for (const Vec3& p : set.positions) {
    auto c = [&](double v) {
      return std::min(static_cast<std::size_t>(v * inv), cells - 1);
    };
    ++counts[(c(p.z) * cells + c(p.y)) * cells + c(p.x)];
  }
  std::sort(counts.begin(), counts.end(), std::greater<>());
  std::size_t top = 0;
  for (std::size_t i = 0; i < counts.size() / 100; ++i) top += counts[i];
  EXPECT_GT(static_cast<double>(top), 0.2 * 20000);
}

TEST(Fof, FindsPlantedClusters) {
  // Three tight blobs + sparse noise; FOF at standard linking must find the
  // blobs as the three largest groups with accurate centers.
  Rng rng(11);
  ParticleSet set;
  set.box_length = 100.0;
  const Vec3 centers[3] = {{20, 20, 20}, {70, 30, 60}, {40, 80, 85}};
  for (const Vec3& c : centers)
    for (int i = 0; i < 400; ++i)
      set.positions.push_back(wrap_periodic(
          c + Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.35, 100.0));
  for (int i = 0; i < 200; ++i)
    set.positions.push_back(
        {rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)});

  FofOptions opt;
  opt.linking_parameter = 0.2;
  const auto groups = find_fof_groups(set, opt);
  ASSERT_GE(groups.size(), 3u);
  for (int g = 0; g < 3; ++g) {
    EXPECT_GE(groups[static_cast<std::size_t>(g)].size(), 350u);
    double best = 1e300;
    for (const Vec3& c : centers)
      best = std::min(best,
                      periodic_dist2(groups[static_cast<std::size_t>(g)].center,
                                     c, 100.0));
    EXPECT_LT(std::sqrt(best), 1.0);
  }
}

TEST(Fof, PeriodicWrappingJoinsAcrossBoundary) {
  // A blob straddling the box corner must come back as ONE group.
  Rng rng(13);
  ParticleSet set;
  set.box_length = 50.0;
  for (int i = 0; i < 500; ++i)
    set.positions.push_back(wrap_periodic(
        Vec3{rng.normal() * 0.4, rng.normal() * 0.4, rng.normal() * 0.4},
        50.0));
  const auto groups = find_fof_groups(set);
  ASSERT_GE(groups.size(), 1u);
  EXPECT_GE(groups[0].size(), 480u);
  // center of mass should be near the corner (0,0,0) modulo wrapping
  const double d = std::sqrt(periodic_dist2(groups[0].center, {0, 0, 0}, 50.0));
  EXPECT_LT(d, 0.5);
}

// O(n²) oracle: union-find over every pair with the production predicate,
// gathered the way find_fof_groups documents (members ascending, groups in
// order of their lowest member, then sorted by descending size).
std::vector<FofGroup> brute_force_fof(const ParticleSet& set,
                                      const FofOptions& opt) {
  const std::size_t n = set.size();
  if (n == 0) return {};
  const double box = set.box_length;
  const double link =
      opt.linking_parameter * (box / std::cbrt(static_cast<double>(n)));
  const double link2 = link * link;
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const Vec3& a = set.positions[i];
      const Vec3& b = set.positions[j];
      const double d2 =
          opt.periodic ? periodic_dist2(a, b, box) : (a - b).norm2();
      if (d2 > link2) continue;
      const std::uint32_t ra = find(i), rb = find(j);
      if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
    }
  std::vector<std::vector<std::uint32_t>> by_root(n);
  for (std::uint32_t i = 0; i < n; ++i) by_root[find(i)].push_back(i);
  std::vector<FofGroup> groups;
  for (std::uint32_t r = 0; r < n; ++r) {  // root = lowest member
    if (by_root[r].empty() || by_root[r].size() < opt.min_group_size)
      continue;
    FofGroup g;
    g.members = std::move(by_root[r]);
    const Vec3 ref = set.positions[g.members.front()];
    Vec3 acc{0, 0, 0};
    for (const std::uint32_t i : g.members)
      acc += opt.periodic ? min_image(set.positions[i] - ref, box)
                          : (set.positions[i] - ref);
    g.center = ref + acc / static_cast<double>(g.members.size());
    if (opt.periodic) g.center = wrap_periodic(g.center, box);
    groups.push_back(std::move(g));
  }
  std::sort(groups.begin(), groups.end(),
            [](const FofGroup& a, const FofGroup& b) {
              return a.size() > b.size();
            });
  return groups;
}

void expect_matches_brute_force(const ParticleSet& set, FofOptions opt,
                                const std::string& what) {
  for (const std::size_t min_size : {std::size_t{1}, std::size_t{8}}) {
    opt.min_group_size = min_size;
    const auto got = find_fof_groups(set, opt);
    const auto want = brute_force_fof(set, opt);
    SCOPED_TRACE(what + " b=" + std::to_string(opt.linking_parameter) +
                 " periodic=" + std::to_string(opt.periodic) +
                 " min=" + std::to_string(min_size));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t g = 0; g < got.size(); ++g) {
      ASSERT_EQ(got[g].members, want[g].members) << "group " << g;
      EXPECT_EQ(std::memcmp(&got[g].center, &want[g].center, sizeof(Vec3)),
                0)
          << "group " << g;
    }
  }
}

ParticleSet small_halo_set(std::size_t n, double box, std::uint64_t seed) {
  HaloModelOptions opt;
  opt.n_particles = n;
  opt.box_length = box;
  opt.n_halos = 12;
  opt.seed = seed;
  return generate_halo_model(opt);
}

ParticleSet small_zeldovich_set() {
  ZeldovichOptions opt;
  opt.grid = 16;  // 4096 particles
  opt.box_length = 20.0;
  opt.growth = 3.0;
  opt.seed = 5;
  return generate_zeldovich(opt);
}

TEST(FofOracle, MatchesBruteForceOnUniformHaloAndZeldovich) {
  const std::pair<const char*, ParticleSet> sets[] = {
      {"uniform", generate_uniform(3000, 10.0, 17)},
      {"halo", small_halo_set(4000, 16.0, 3)},
      {"zeldovich", small_zeldovich_set()}};
  for (const auto& [name, set] : sets)
    for (const bool periodic : {true, false}) {
      FofOptions opt;
      opt.periodic = periodic;
      expect_matches_brute_force(set, opt, name);
    }
}

TEST(FofOracle, LinkingParameterSweepIncludingTinyGrids) {
  // n = 2000: the clique grid has ceil(√3·∛n / b) cells per side, so
  // b ≥ 5 leaves fewer than 5 (b = 40 leaves one) and neighbour offsets
  // alias across the periodic box.
  const ParticleSet halo = small_halo_set(2000, 16.0, 7);
  const ParticleSet uniform = generate_uniform(2000, 16.0, 9);
  for (const double b : {0.05, 0.2, 0.5, 1.0, 3.0, 5.0, 8.0, 12.0, 20.0, 40.0})
    for (const bool periodic : {true, false}) {
      FofOptions opt;
      opt.linking_parameter = b;
      opt.periodic = periodic;
      expect_matches_brute_force(halo, opt, "halo");
      expect_matches_brute_force(uniform, opt, "uniform");
    }
}

TEST(FofOracle, AdversarialPlacements) {
  // box 8 with 512 particles: mean spacing 1, so link = b exactly.
  const double box = 8.0;
  const double link = 0.5;
  const double edge = link / std::sqrt(3.0);
  ParticleSet set;
  set.box_length = box;
  auto& p = set.positions;
  // Chains at exactly link along each axis (0.5² is exact: d2 == link2).
  for (int k = 0; k < 6; ++k) {
    p.push_back({1.0 + 0.5 * k, 2.0, 2.0});
    p.push_back({5.0, 1.0 + 0.5 * k, 6.0});
    p.push_back({6.5, 6.5, 0.5 * k});
  }
  // Points on and next to clique-cell faces.
  for (int k = 0; k < 12; ++k) {
    const double f = edge * k;
    p.push_back({f, 4.0, 4.0});
    p.push_back({std::nextafter(f, 0.0), 4.0 + edge, 4.0});
    p.push_back({4.0, f, std::nextafter(f, box)});
  }
  // The box faces: 0 and the largest coordinate below box are neighbours
  // across the periodic boundary.
  const double top = std::nextafter(box, 0.0);
  for (const double x : {0.0, top})
    for (const double y : {0.0, top})
      for (const double z : {0.0, top}) p.push_back({x, y, z});
  p.push_back({top, 3.0, 3.0});
  p.push_back({0.0, 3.0, 3.0 + link});
  // Coincident duplicates, in and out of other groups.
  for (int k = 0; k < 4; ++k) {
    p.push_back({7.25, 0.75, 3.5});
    p.push_back({1.0, 2.0, 2.0});
  }
  // Pairs at link up to rounding, in random directions.
  Rng rng(23);
  while (p.size() < 400) {
    const Vec3 a{rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5),
                 rng.uniform(0.5, 7.5)};
    Vec3 u{rng.normal(), rng.normal(), rng.normal()};
    u = u / std::sqrt(u.norm2());
    p.push_back(a);
    p.push_back(a + u * link);
  }
  while (p.size() < 512)
    p.push_back({rng.uniform(0, box), rng.uniform(0, box),
                 rng.uniform(0, box)});
  ASSERT_EQ(p.size(), 512u);
  FofOptions opt;
  opt.linking_parameter = link;
  for (const bool periodic : {true, false}) {
    opt.periodic = periodic;
    expect_matches_brute_force(set, opt, "adversarial");
  }

  // Isolated pairs linked only across the periodic x edge of their own row:
  // one member in the last cell, the other in the first or second cell.
  // 512 points again, with link 0.2 so the 0.5-spaced pairs stay apart.
  FofOptions wrap_opt;
  wrap_opt.linking_parameter = 0.2;
  const double wrap_edge = 0.2 / std::sqrt(3.0);
  ParticleSet wrap_pairs;
  wrap_pairs.box_length = box;
  for (int k = 0; k < 256; ++k) {
    const double y = 0.5 + (k % 16) * 0.5, z = 0.25 + (k / 16) * 0.5;
    const bool far = k % 2 == 1;  // second cell: two cells across the edge
    wrap_pairs.positions.push_back({box - (far ? 0.05 : 0.1), y, z});
    wrap_pairs.positions.push_back({far ? 1.2 * wrap_edge : 0.05, y, z});
  }
  wrap_opt.min_group_size = 2;
  EXPECT_EQ(find_fof_groups(wrap_pairs, wrap_opt).size(), 256u);
  expect_matches_brute_force(wrap_pairs, wrap_opt, "wrap pairs");

  // Non-periodic input outside [0, box): the grid follows the points'
  // bounding box, so far-out points neither clamp together nor get lost.
  ParticleSet outside = set;
  for (std::size_t i = 0; i < outside.size(); i += 3)
    outside.positions[i] += Vec3{-1.5 * box, 0.25 * box, 2.0 * box};
  for (std::size_t i = 1; i < 40; i += 3)
    outside.positions[i] = {-3.0 * box, 5.0 * box,
                            -0.4 * static_cast<double>(i)};
  opt.periodic = false;
  expect_matches_brute_force(outside, opt, "outside");
}

TEST(FofOracle, RejectsNonPositiveLinkingLength) {
  const ParticleSet set = generate_uniform(100, 4.0, 1);
  FofOptions opt;
  opt.linking_parameter = 0.0;
  EXPECT_THROW(find_fof_groups(set, opt), Error);
}

TEST(SnapshotIo, RoundTripWithBlocks) {
  auto set = generate_uniform(3000, 64.0, 21);
  set.particle_mass = 2.25;
  const std::string path = "/tmp/pdtfe_test_snapshot.bin";
  write_snapshot(path, set, 2);

  const auto header = read_snapshot_header(path);
  EXPECT_EQ(header.n_particles, 3000u);
  EXPECT_EQ(header.blocks.size(), 8u);
  EXPECT_DOUBLE_EQ(header.box_length, 64.0);
  EXPECT_DOUBLE_EQ(header.particle_mass, 2.25);

  // Blocks partition the particles and respect their sub-volume bounds.
  std::size_t total = 0;
  for (std::size_t b = 0; b < header.blocks.size(); ++b) {
    const auto pts = read_snapshot_block(path, header, b);
    EXPECT_EQ(pts.size(), header.blocks[b].count);
    total += pts.size();
    for (const Vec3& p : pts) {
      EXPECT_GE(p.x, header.blocks[b].sub_lo.x);
      EXPECT_LE(p.x, header.blocks[b].sub_hi.x);
      EXPECT_GE(p.z, header.blocks[b].sub_lo.z);
      EXPECT_LE(p.z, header.blocks[b].sub_hi.z);
    }
  }
  EXPECT_EQ(total, 3000u);

  // Full read recovers the multiset of positions.
  const auto back = read_snapshot(path);
  EXPECT_EQ(back.size(), set.size());
  double sum_orig = 0.0, sum_back = 0.0;
  for (const Vec3& p : set.positions) sum_orig += p.x + p.y + p.z;
  for (const Vec3& p : back.positions) sum_back += p.x + p.y + p.z;
  EXPECT_NEAR(sum_orig, sum_back, 1e-9);
  std::remove(path.c_str());
}

TEST(Particles, PeriodicHelpers) {
  EXPECT_DOUBLE_EQ(wrap_periodic(-1.0, 10.0), 9.0);
  EXPECT_DOUBLE_EQ(wrap_periodic(11.5, 10.0), 1.5);
  EXPECT_DOUBLE_EQ(wrap_periodic(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(min_image(9.0, 10.0), -1.0);
  EXPECT_DOUBLE_EQ(min_image(-7.0, 10.0), 3.0);
  EXPECT_NEAR(periodic_dist2({0.5, 0, 0}, {9.5, 0, 0}, 10.0), 1.0, 1e-12);
}

TEST(Particles, ExtractCubeUnwrapsImages) {
  ParticleSet set;
  set.box_length = 10.0;
  set.positions = {{0.5, 5, 5}, {9.8, 5, 5}, {5, 5, 5}};
  const auto cube = extract_cube(set, {0.0, 5.0, 5.0}, 2.0);
  ASSERT_EQ(cube.size(), 2u);
  // The particle at x=9.8 appears unwrapped at x=-0.2.
  bool found = false;
  for (const Vec3& p : cube)
    if (std::abs(p.x + 0.2) < 1e-12) found = true;
  EXPECT_TRUE(found);
}

TEST(Particles, PeriodicPadAddsImages) {
  ParticleSet set;
  set.box_length = 10.0;
  set.positions = {{0.5, 5, 5}, {5, 5, 5}, {9.5, 9.5, 9.5}};
  const auto padded = with_periodic_pad(set, 1.0);
  // originals present
  EXPECT_GE(padded.size(), 3u);
  // image of the first particle at x=10.5
  bool right = false, corner = false;
  for (const Vec3& p : padded) {
    if (std::abs(p.x - 10.5) < 1e-12 && std::abs(p.y - 5) < 1e-12) right = true;
    if (std::abs(p.x + 0.5) < 1e-12 && std::abs(p.y + 0.5) < 1e-12 &&
        std::abs(p.z + 0.5) < 1e-12)
      corner = true;
  }
  EXPECT_TRUE(right);
  EXPECT_TRUE(corner);  // the (9.5,9.5,9.5) particle's 3-axis image
  // the centered particle contributes no images
  std::size_t center_count = 0;
  for (const Vec3& p : padded)
    if (std::abs(p.x - 5) < 1e-12 && std::abs(p.y - 5) < 1e-12 &&
        std::abs(p.z - 5) < 1e-12)
      ++center_count;
  EXPECT_EQ(center_count, 1u);
}

TEST(Particles, PeriodicPadFixesFullBoxMassRecovery) {
  // Full-box surface density from padded points recovers the total mass
  // (the unpadded hull loses boundary contributions).
  const auto set = generate_uniform(4000, 10.0, 51);
  const auto padded = with_periodic_pad(set, 1.0);
  EXPECT_GT(padded.size(), set.size());
}

}  // namespace
}  // namespace dtfe
