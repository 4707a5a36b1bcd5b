// N-body request-planning micro-benchmark: FOF halo finding on the
// pipeline bench fixture (`pdtfe generate --kind halo --n 120000 --box 16
// --seed 3`), reported as particles/s.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "nbody/fof.h"
#include "nbody/generators.h"

namespace dtfe {
namespace {

void BM_FofHalo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  HaloModelOptions gen;  // the CLI's `generate --kind halo` settings
  gen.n_particles = n;
  gen.box_length = 16.0;
  gen.n_halos = std::max<std::size_t>(8, n / 2500);
  gen.seed = 3;
  const ParticleSet set = generate_halo_model(gen);
  std::size_t groups = 0;
  for (auto _ : state) {
    const auto found = find_fof_groups(set);
    groups = found.size();
    benchmark::DoNotOptimize(found.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_FofHalo)->Arg(120000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dtfe

BENCHMARK_MAIN();
