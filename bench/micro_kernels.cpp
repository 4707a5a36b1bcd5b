// Kernel ablations: marching vs walking vs zero-order per rendered cell,
// Monte Carlo sampling counts, walking z-resolution sweep (the cost knob the
// marching kernel eliminates), the Plücker-vs-Möller march, and the
// vertical-crossing-test A/B (AoS vs SoA coefficient tables).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/reconstructor.h"
#include "dtfe/march_tables.h"
#include "geometry/ray_tetra.h"
#include "geometry/tetra_coef.h"
#include "nbody/generators.h"

namespace dtfe {
namespace {

const Reconstructor& shared_recon() {
  static const Reconstructor* recon = [] {
    HaloModelOptions gen;
    gen.n_particles = 30000;
    gen.box_length = 10.0;
    gen.n_halos = 12;
    gen.seed = 4;
    const auto set = generate_halo_model(gen);
    return new Reconstructor(set.positions, set.particle_mass);
  }();
  return *recon;
}

FieldSpec bench_spec(std::size_t ng) {
  FieldSpec spec;
  spec.origin = {1.0, 1.0};
  spec.length = 8.0;
  spec.resolution = ng;
  spec.zmin = 1.0;
  spec.zmax = 9.0;
  return spec;
}

void BM_MarchingRender(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(static_cast<std::size_t>(state.range(0)));
  MarchingOptions opt;
  opt.monte_carlo_samples = static_cast<int>(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(recon.surface_density(spec, opt).sum());
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_MarchingRender)
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({64, 4})
    ->Unit(benchmark::kMillisecond);

void BM_MarchingRenderMoller(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(64);
  MarchingOptions opt;
  opt.use_moller_trumbore = true;
  for (auto _ : state)
    benchmark::DoNotOptimize(recon.surface_density(spec, opt).sum());
  state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_MarchingRenderMoller)->Unit(benchmark::kMillisecond);

void BM_WalkingRender(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(64);
  WalkingOptions opt;
  opt.z_resolution = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(recon.surface_density_walking(spec, opt).sum());
  state.SetItemsProcessed(state.iterations() * 64 * 64);
}
BENCHMARK(BM_WalkingRender)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_ZeroOrderRender(benchmark::State& state) {
  const auto& recon = shared_recon();
  const auto spec = bench_spec(64);
  TessOptions opt;
  opt.z_resolution = 64;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        recon.surface_density_zero_order(spec, opt).sum());
}
BENCHMARK(BM_ZeroOrderRender)->Unit(benchmark::kMillisecond);

// ---- vertical crossing test A/B ------------------------------------------
// The marching hot loop is one crossing test per tetra step. This bench
// classifies the SAME crossings two ways: the pre-table AoS geometry test
// (the old production path, kept as oracle) and the SoA coefficient form
// the march runs. Both forms are timed in one process, one pass each per
// iteration, and the order flips every iteration, so a host speed swing
// lands on both halves of a pair alike. run_bench gates the median of the
// per-pair AoS/coefficient time ratios (counter speedup_median).
struct CrossingFixture {
  std::vector<std::array<Vec3, 4>> tets;
  std::vector<VerticalTetraCoef> coef;
  std::vector<Vec2> xi;
  std::vector<int> entry;
};

const CrossingFixture& crossing_fixture() {
  static const CrossingFixture* fx = [] {
    auto* f = new CrossingFixture;
    std::uint64_t s = 0x5eedULL;
    auto unit = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return static_cast<double>(s >> 11) * 0x1.0p-53;
    };
    while (f->tets.size() < 4096) {
      std::array<Vec3, 4> v;
      for (auto& p : v)
        p = {unit() * 10.0, unit() * 10.0, unit() * 10.0};
      const Vec2 cen{(v[0].x + v[1].x + v[2].x + v[3].x) * 0.25,
                     (v[0].y + v[1].y + v[2].y + v[3].y) * 0.25};
      const VerticalTetraCoef c = make_vertical_coef(v);
      double sp[6];
      coef_edge_products(c, cen, sp);
      const VerticalSpan span = coef_vertical_span(c, sp);
      if (!span.intersects || span.degenerate) continue;  // sliver: skip
      f->tets.push_back(v);
      f->coef.push_back(c);
      f->xi.push_back(cen);
      f->entry.push_back(span.enter_face);
    }
    return f;
  }();
  return *fx;
}

// One pass per form over the whole fixture. Kept out of line so each pass
// compiles to the same loop it would in a bench of its own.
[[gnu::noinline]] double aos_pass() {
  const auto& fx = crossing_fixture();
  double acc = 0.0;
  for (std::size_t i = 0; i < fx.tets.size(); ++i)
    acc += line_tetra_vertical_exit(fx.xi[i], fx.tets[i], fx.entry[i]).z_exit;
  return acc;
}

[[gnu::noinline]] double coef_pass() {
  const auto& fx = crossing_fixture();
  double acc = 0.0;
  for (std::size_t i = 0; i < fx.coef.size(); ++i) {
    double s[6];
    coef_edge_products(fx.coef[i], fx.xi[i], s);
    acc += coef_vertical_exit(fx.coef[i], s, fx.entry[i]).z_exit;
  }
  return acc;
}

/// Wall seconds of one pass.
double time_pass(double (*pass)()) {
  const auto t0 = std::chrono::steady_clock::now();
  double acc = pass();
  benchmark::DoNotOptimize(acc);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void BM_VerticalCrossingPairs(benchmark::State& state) {
  std::vector<double> ratios;
  double aos_s = 0.0, coef_s = 0.0;
  for (auto _ : state) {
    double aos, coef;
    if (ratios.size() % 2 == 0) {
      aos = time_pass(aos_pass);
      coef = time_pass(coef_pass);
    } else {
      coef = time_pass(coef_pass);
      aos = time_pass(aos_pass);
    }
    aos_s += aos;
    coef_s += coef;
    ratios.push_back(aos / coef);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n = ratios.size();
  const double median =
      n % 2 ? ratios[n / 2] : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
  const double crossings = static_cast<double>(state.iterations()) *
                           static_cast<double>(crossing_fixture().tets.size());
  state.counters["aos_per_s"] = crossings / aos_s;
  state.counters["coef_per_s"] = crossings / coef_s;
  state.counters["speedup_median"] = median;
  state.counters["pairs"] = static_cast<double>(n);
}
BENCHMARK(BM_VerticalCrossingPairs);

void BM_IntegrateSingleLine(benchmark::State& state) {
  const auto& recon = shared_recon();
  double x = 1.0;
  for (auto _ : state) {
    x += 0.013;
    if (x > 9.0) x = 1.0;
    benchmark::DoNotOptimize(recon.integrate_los(x, 5.0, 1.0, 9.0));
  }
}
BENCHMARK(BM_IntegrateSingleLine);

}  // namespace
}  // namespace dtfe

BENCHMARK_MAIN();
