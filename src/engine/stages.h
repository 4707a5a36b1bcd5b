// The distributed many-field pipeline (paper §IV), decomposed into named,
// individually testable stages:
//
//   ExchangeStage  (1) partitioning & redistribution + ghost exchange,
//                  request routing, durable manifest / checkpoint replay
//                  (phase span: pipeline.partition)
//   ScheduleStage  (2) workload modeling (count → time one random item →
//                  Allgather → fit) and (3) the work-sharing schedule +
//                  sender plan (spans: pipeline.model, pipeline.work_share)
//   ComputeStage   (4) execution & communication: local items, acknowledged
//                  work packages, retries, fallback
//   RecoverStage   post-run recomputation of items lost with dead ranks
//                  (span: pipeline.recover)
//   ReduceStage    final agreement: surviving-rank bookkeeping + exit barrier
//
// A StageContext carries the evolving per-rank state between stages; each
// stage is a pure function of the context, so tests can drive them one at a
// time and inspect the intermediate state. run_stages() chains all five —
// it IS the old run_pipeline_impl, behavior-preserved (identical grids,
// spans, metrics, checkpoint and resume semantics).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "framework/decomposition.h"
#include "framework/durable.h"
#include "framework/pipeline.h"
#include "framework/schedule.h"
#include "simmpi/comm.h"
#include "util/cancel.h"
#include "util/grid_index.h"
#include "util/rng.h"

namespace dtfe::engine {

/// Everything one rank's pipeline run reads and produces, shared by the
/// stages. Inputs are set at construction; the rest is filled as stages run.
struct StageContext {
  StageContext(simmpi::Comm& comm_in, const PipelineOptions& opt_in,
               double box_in, double particle_mass_in,
               std::vector<Vec3> my_block_in,
               std::vector<Vec3> field_centers_in,
               const CubeFetcher& fetch_cube_in);

  // --- inputs --------------------------------------------------------------
  simmpi::Comm& comm;
  const PipelineOptions& opt;
  double box;
  double particle_mass;
  std::vector<Vec3> my_block;       ///< consumed by ExchangeStage
  std::vector<Vec3> field_centers;  ///< broadcast/filled by ExchangeStage
  const CubeFetcher& fetch_cube;

  // --- derived constants ---------------------------------------------------
  int P;
  int me;
  double cube_side;
  double ghost_radius;
  Rng rng;  ///< model-sample pick (seeded exactly as the monolith did)

  // --- produced by ExchangeStage -------------------------------------------
  std::optional<Decomposition> decomp;
  std::vector<Vec3> local_particles;            ///< owned + ghosts
  std::vector<Vec3> my_requests;                ///< centers this rank owns
  std::vector<std::ptrdiff_t> my_request_ids;   ///< global request indices
  std::unique_ptr<CheckpointWriter> ckpt;
  std::vector<std::pair<std::ptrdiff_t, FieldGrid>> replay_here;

  // --- produced by ScheduleStage -------------------------------------------
  std::optional<GridIndex> index;
  std::vector<double> item_counts;
  std::ptrdiff_t test_item = -1;   ///< index into my_requests (-1 = none)
  FieldGrid test_grid;
  ItemRecord test_record;
  std::vector<double> predicted;
  double total_predicted = 0.0;
  SenderPlan plan;
  std::vector<std::size_t> remaining;  ///< indices into my_requests

  // --- accumulated result --------------------------------------------------
  PipelineResult res;

  // --- helpers shared by ComputeStage / RecoverStage -----------------------
  /// Per-item watchdog budget (see PipelineOptions::item_deadline_ms).
  Deadline make_deadline(double pred_seconds) const;
  /// Commit one computed item: phase accounting, durability, metrics,
  /// item trace spans, result bookkeeping.
  void record_item(ItemRecord rec, FieldGrid grid, double pred_tri,
                   double pred_interp, bool received);
  /// How an item reached this rank: picks its crash-diagnostics label and
  /// the ItemRecord path flag.
  enum class ItemPath { kLocal, kReceived, kFallback, kRecovered };
  /// Compute one item on this rank thread and commit it: arm the watchdog
  /// from the model's prediction for `count` particles, mark the item for
  /// crash diagnostics, compute_field_item, record_item.
  void run_item(std::vector<Vec3> cube, double count, const Vec3& center,
                std::ptrdiff_t request_index, ItemPath path);
  /// Gather the cube for my_requests[remaining[j]], compute, record.
  void execute_local(std::size_t idx_in_remaining);
};

struct ExchangeStage {
  void run(StageContext& ctx) const;
};
struct ScheduleStage {
  void run(StageContext& ctx) const;
};
struct ComputeStage {
  void run(StageContext& ctx) const;
};
struct RecoverStage {
  void run(StageContext& ctx) const;
};
struct ReduceStage {
  void run(StageContext& ctx) const;
};

/// Run all five stages in order and return the finished per-rank result.
PipelineResult run_stages(StageContext& ctx);

/// One-call convenience over a fresh context: the per-rank entry behind
/// run_pipeline and run_pipeline_from_snapshot.
PipelineResult run_stages(simmpi::Comm& comm, const PipelineOptions& opt,
                          double box, double particle_mass,
                          std::vector<Vec3> my_block,
                          std::vector<Vec3> field_centers,
                          const CubeFetcher& fetch_cube);

}  // namespace dtfe::engine
