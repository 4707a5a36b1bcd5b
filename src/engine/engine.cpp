#include "engine/engine.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "util/error.h"

namespace dtfe::engine {

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  DTFE_CHECK_MSG(!config_.snapshot.empty(),
                 "snapshot-backed Engine needs config.snapshot");
}

Engine::Engine(EngineConfig config, ParticleSet particles)
    : config_(std::move(config)), particles_(std::move(particles)) {}

void merge_rank_items(const PipelineResult& res,
                      std::vector<FieldResult>& results) {
  for (std::size_t k = 0; k < res.items.size(); ++k) {
    const ItemRecord& it = res.items[k];
    if (it.request_index < 0 ||
        it.request_index >= static_cast<std::ptrdiff_t>(results.size()))
      continue;
    FieldResult& out = results[static_cast<std::size_t>(it.request_index)];
    // First commit wins: any duplicate (fallback, recovery overlap) is a
    // bitwise-identical recomputation of the same pure function.
    if (out.completed) continue;
    out.completed = true;
    out.grid = res.grids[k];
    out.checksum = it.grid_sum;
    out.failed = it.failed;
    out.fail_reason = it.fail_reason;
  }
}

std::vector<FieldResult> Engine::run_batch(
    std::span<const FieldRequest> requests) {
  wire_stats_ = simmpi::TransportStats{};
  if (config_.transport.kind == TransportKind::kSocket)
    return run_batch_socket(requests);
  std::vector<Vec3> centers;
  centers.reserve(requests.size());
  for (const FieldRequest& r : requests) centers.push_back(r.center);

  PipelineOptions opt = config_.pipeline;
  opt.keep_grids = true;  // the results carry their grids back to the caller

  simmpi::RunOptions run_opts;
  run_opts.fault_plan =
      config_.fault_plan.empty() ? nullptr : &config_.fault_plan;

  std::vector<FieldResult> results(requests.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    results[i].request = static_cast<std::ptrdiff_t>(i);

  std::mutex mtx;
  std::vector<RankRun> runs;
  simmpi::run(config_.ranks, run_opts, [&](simmpi::Comm& comm) {
    PipelineResult res =
        particles_ ? run_pipeline(comm, *particles_, centers, opt)
                   : run_pipeline_from_snapshot(comm, config_.snapshot,
                                                centers, opt);
    std::lock_guard<std::mutex> lock(mtx);
    merge_rank_items(res, results);
    runs.push_back({comm.rank(), std::move(res)});
  });

  std::sort(runs.begin(), runs.end(),
            [](const RankRun& a, const RankRun& b) { return a.rank < b.rank; });
  rank_runs_ = std::move(runs);
  return results;
}

}  // namespace dtfe::engine
