// pdtfe_trace — the benchmark's per-layer replay driver.
//
//   pdtfe_trace pipeline --in snap.bin --ranks 2 --fields 16 --grid 32
//               --length 3 --report-out prefix [common flags]
//   pdtfe_trace render   --in snap.bin --grid 2048 --out map.pgm
//               [common flags]
//   common flags: --instrument 0|1  --spans-out t.json  --summary s.json
//
// It does what `pdtfe pipeline` / `pdtfe render --method march` do, through
// each layer's public entry points, with one Chrome trace span around every
// call (read_snapshot, find_fof_groups, Engine::run_batch, the output
// writers). The pipeline mode then replays every request item by item: a
// periodic GridIndex::gather_in_cube of the engine's cube (side cube_pad ×
// field length) in canonical order, then the Triangulation, DensityField,
// HullProjection and TetraGeomTable constructors and FieldKernel::render,
// so the Delaunay, table and kernel layers are timed one by one. The render
// mode replays its single whole-box cube the same way. FieldKernel::render
// takes a FieldCube, which rebuilds those four pieces; that rebuild is its
// own span, "FieldCube::FieldCube", and belongs to no layer.
//
// --instrument 1 records the spans and enables the library's op counters
// around the replayed Triangulation constructors and renders only, so the
// summary's counters cover exactly the replayed work and can be compared
// with the CLI's --metrics-out. --instrument 0 makes the same calls with
// neither, as the baseline for the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dtfe.h"
#include "dtfe/march_tables.h"
#include "engine/phases.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/grid_index.h"
#include "util/image.h"
#include "util/rng.h"

namespace {

using namespace dtfe;

constexpr const char* kLayerCat = "layer";    ///< top-level spans
constexpr const char* kReplayCat = "replay";  ///< spans inside "replay"

/// Library counters summed over the replay, checked against the CLI's.
constexpr const char* kCounters[] = {
    "dtfe.delaunay.points_inserted", "dtfe.delaunay.cells_created",
    "dtfe.delaunay.conflict_cells",  "dtfe.delaunay.walk_steps",
    "dtfe.delaunay.locates",         "dtfe.kernel.tetra_crossings",
    "dtfe.kernel.rays_integrated",
};

struct Run {
  bool instrument = false;
  obs::TraceRecorder recorder;
  std::map<std::string, double> values;  ///< summary scalars
};

/// Enables the op counters for one replayed call when instrumenting.
class CountScope {
 public:
  explicit CountScope(const Run& run) : on_(run.instrument) {
    if (on_) obs::MetricsRegistry::global().set_enabled(true);
  }
  CountScope(const CountScope&) = delete;
  CountScope& operator=(const CountScope&) = delete;
  ~CountScope() {
    if (on_) obs::MetricsRegistry::global().set_enabled(false);
  }

 private:
  bool on_;
};

/// The engine's per-item kernel seed (item_seed in engine/stages.cpp): a
/// pure function of the run seed and the wrapped field center. The replay
/// must use it to march the same rays as the pipeline.
std::uint64_t item_seed(std::uint64_t base, const Vec3& center) {
  std::uint64_t h = base ^ 0x9e3779b97f4a7c15ull;
  for (const double v : {center.x, center.y, center.z}) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h = detail::splitmix64(h);
  }
  return h ? h : 0x9e3779b97f4a7c15ull;
}

/// The engine's canonical cube order (prepare_item sorts lexicographically).
bool lex_less(const Vec3& a, const Vec3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

/// Periodic image of v nearest to c: the coordinate a ghost copy carries in
/// the engine's rank-local particle set (p ± box).
double unwrap_near(double v, double c, double box) {
  return v - box * std::round((v - c) / box);
}

/// Replays one work item's reconstruction; returns the grid.
FieldGrid replay_item(Run& run, std::vector<Vec3> points, double mass,
                      const engine::RenderRequest& request,
                      const engine::FieldKernel& kernel, int item) {
  obs::TraceRecorder* rec = &run.recorder;
  {
    std::unique_ptr<Triangulation> tri;
    std::unique_ptr<DensityField> density;
    std::unique_ptr<HullProjection> hull;
    std::unique_ptr<TetraGeomTable> geom;
    {
      obs::TraceSpan s("Triangulation::Triangulation", kReplayCat, rec);
      s.add_arg("item", item);
      s.add_arg("points", static_cast<double>(points.size()));
      const CountScope count(run);
      tri = std::make_unique<Triangulation>(points);
    }
    {
      obs::TraceSpan s("DensityField::DensityField", kReplayCat, rec);
      s.add_arg("item", item);
      density = std::make_unique<DensityField>(*tri, mass);
    }
    {
      obs::TraceSpan s("HullProjection::HullProjection", kReplayCat, rec);
      s.add_arg("item", item);
      hull = std::make_unique<HullProjection>(*tri);
    }
    {
      obs::TraceSpan s("TetraGeomTable::TetraGeomTable", kReplayCat, rec);
      s.add_arg("item", item);
      geom = std::make_unique<TetraGeomTable>(*tri);
    }
  }
  std::unique_ptr<engine::FieldCube> cube;
  {
    obs::TraceSpan s("FieldCube::FieldCube", kReplayCat, rec);
    s.add_arg("item", item);
    cube = std::make_unique<engine::FieldCube>(std::move(points), mass);
  }
  obs::TraceSpan s("FieldKernel::render", kReplayCat, rec);
  s.add_arg("item", item);
  const CountScope count(run);
  engine::KernelStats stats;
  return kernel.render(*cube, request, nullptr, stats);
}

void run_pipeline(const CliArgs& args, Run& run) {
  const engine::EngineConfig cfg = engine::EngineConfig::from_cli(args);
  const PipelineOptions& opt = cfg.pipeline;
  const std::string report_prefix = args.get("report-out", std::string{});
  DTFE_CHECK_MSG(!report_prefix.empty(), "--report-out is required");
  obs::TraceRecorder* rec = &run.recorder;

  ParticleSet set;
  {
    obs::TraceSpan s("read_snapshot", kLayerCat, rec);
    set = read_snapshot(cfg.snapshot);
  }
  std::vector<FofGroup> groups;
  {
    obs::TraceSpan s("find_fof_groups", kLayerCat, rec);
    groups = find_fof_groups(set);
  }
  // Request planning exactly as `pdtfe pipeline`: the largest FOF objects.
  std::vector<engine::FieldRequest> requests;
  for (std::size_t i = 0; i < groups.size() && requests.size() < cfg.n_fields;
       ++i)
    requests.push_back({groups[i].center});
  run.values["fof_groups"] = static_cast<double>(groups.size());
  run.values["requests"] = static_cast<double>(requests.size());

  engine::Engine eng(cfg);
  std::vector<engine::FieldResult> fields;
  {
    obs::TraceSpan s("Engine::run_batch", kLayerCat, rec);
    fields = eng.run_batch(requests);
  }
  double completed = 0.0, failed = 0.0, batch_checksum = 0.0;
  for (const engine::FieldResult& f : fields) {
    if (f.completed) {
      completed += 1.0;
      batch_checksum += f.checksum;
    }
    if (f.failed) failed += 1.0;
  }
  run.values["fields_completed"] = completed;
  run.values["fields_failed"] = failed;
  run.values["batch_checksum"] = batch_checksum;

  {
    obs::TraceSpan replay("replay", kLayerCat, rec);
    const double box = set.box_length;
    const double side = opt.cube_pad * opt.field_length;
    std::unique_ptr<GridIndex> index;
    {
      obs::TraceSpan s("GridIndex::GridIndex", kReplayCat, rec);
      index = std::make_unique<GridIndex>(set.positions, Vec3{0.0, 0.0, 0.0},
                                          box, opt.count_grid_cells,
                                          /*periodic=*/true);
    }
    const std::unique_ptr<engine::FieldKernel> kernel =
        engine::KernelRegistry::builtin().create(opt.kernel);
    double replay_checksum = 0.0;
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const int item = static_cast<int>(i);
      const Vec3 w = wrap_periodic(requests[i].center, box);
      std::vector<Vec3> cube;
      {
        obs::TraceSpan s("GridIndex::gather_in_cube", kReplayCat, rec);
        s.add_arg("item", item);
        ids.clear();
        index->gather_in_cube(w, side, ids);
        cube.reserve(ids.size());
        for (const std::uint32_t id : ids) {
          const Vec3& p = set.positions[id];
          cube.push_back({unwrap_near(p.x, w.x, box),
                          unwrap_near(p.y, w.y, box),
                          unwrap_near(p.z, w.z, box)});
        }
        std::sort(cube.begin(), cube.end(), lex_less);
      }
      // The engine renders a zero field without triangulating these.
      if (cube.size() < opt.min_particles) continue;
      engine::RenderRequest request;
      request.spec =
          FieldSpec::centered(w, opt.field_length, opt.field_resolution);
      request.seed = item_seed(opt.seed, w);
      request.field = opt.field;
      request.smooth_ensemble = opt.smooth_ensemble;
      request.model_seed = opt.seed;
      replay_checksum +=
          replay_item(run, std::move(cube), set.particle_mass, request,
                      *kernel, item)
              .sum();
    }
    run.values["replay_checksum"] = replay_checksum;
  }

  {
    // The run report `pdtfe pipeline --report` writes: per-rank phase rows.
    obs::TraceSpan s("RunReport::write", kLayerCat, rec);
    obs::RunReport report;
    for (const engine::RankRun& rr : eng.last_rank_runs()) {
      const PhaseTimes& ph = rr.result.phases;
      report.add_rank_values(
          rr.rank, {{engine::phases::kReportPartition, ph.partition},
                    {engine::phases::kReportModel, ph.model},
                    {engine::phases::kReportWorkShare, ph.work_share},
                    {engine::phases::kReportTriangulate, ph.triangulate},
                    {engine::phases::kReportRender, ph.render},
                    {engine::phases::kReportRecover, ph.recover},
                    {engine::phases::kReportTotal, ph.total()}});
    }
    report.add_summary("fields_completed", completed);
    report.add_summary("grid_checksum_total", batch_checksum);
    DTFE_CHECK_MSG(report.write_json(report_prefix + ".json") &&
                       report.write_csv(report_prefix + ".csv"),
                   "cannot write " << report_prefix << ".json/.csv");
  }
}

void run_render(const CliArgs& args, Run& run) {
  const CommonFieldFlags common = parse_common_field_flags(args, 512L);
  const std::string out = args.get("out", std::string{});
  DTFE_CHECK_MSG(!out.empty(), "--out is required");
  obs::TraceRecorder* rec = &run.recorder;

  ParticleSet set;
  {
    obs::TraceSpan s("read_snapshot", kLayerCat, rec);
    set = read_snapshot(common.in);
  }
  // The field `pdtfe render` draws: the whole box, projected along z.
  FieldSpec spec;
  spec.origin = {0.0, 0.0};
  spec.length = set.box_length;
  spec.resolution = common.grid;
  spec.zmin = 0.0;
  spec.zmax = set.box_length;
  FieldGrid grid;
  {
    obs::TraceSpan replay("replay", kLayerCat, rec);
    const std::unique_ptr<engine::FieldKernel> kernel =
        engine::KernelRegistry::builtin().create("march");
    grid = replay_item(run, set.positions, set.particle_mass,
                       engine::RenderRequest{spec}, *kernel, 0);
  }
  {
    obs::TraceSpan s("write_log_pgm", kLayerCat, rec);
    write_log_pgm(out, grid.plane(0).values(), common.grid, common.grid);
  }
  run.values["replay_checksum"] = grid.sum();
  run.values["grid_mass"] = grid.sum() * spec.cell_size() * spec.cell_size();
  run.values["particle_mass_total"] = set.total_mass();
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Per-span-name totals, the scalars and the counters, as one JSON object.
std::string summary_json(const Run& run, double wall_s,
                         const obs::MetricsSnapshot& counters) {
  struct Agg {
    double count = 0, total_s = 0, max_s = 0;
  };
  std::map<std::string, Agg> by_name;
  double top_level_s = 0.0;
  for (const obs::TraceEvent& ev : run.recorder.events()) {
    Agg& a = by_name[ev.name];
    const double s = ev.dur_us * 1e-6;
    a.count += 1.0;
    a.total_s += s;
    a.max_s = std::max(a.max_s, s);
    if (ev.cat == kLayerCat) top_level_s += s;
  }
  std::ostringstream js;
  js << "{\n  \"wall_s\": " << json_number(wall_s)
     << ",\n  \"top_level_s\": " << json_number(top_level_s)
     << ",\n  \"instrument\": " << (run.instrument ? 1 : 0);
  for (const auto& [key, value] : run.values)
    js << ",\n  \"" << key << "\": " << json_number(value);
  js << ",\n  \"spans\": {";
  const char* sep = "\n";
  for (const auto& [name, a] : by_name) {
    js << sep << "    \"" << name << "\": {\"count\": " << json_number(a.count)
       << ", \"total_s\": " << json_number(a.total_s)
       << ", \"max_s\": " << json_number(a.max_s) << "}";
    sep = ",\n";
  }
  js << "\n  },\n  \"counters\": {";
  sep = "\n";
  for (const char* name : kCounters) {
    js << sep << "    \"" << name
       << "\": " << json_number(counters.counter(name));
    sep = ",\n";
  }
  js << "\n  }\n}\n";
  return js.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: pdtfe_trace <pipeline|render> --in snap.bin "
               "[--instrument 0|1] [--spans-out t.json] [--summary s.json] "
               "...\n       see the header of perfbench/trace_driver.cpp\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  try {
    const CliArgs args(argc, argv);
    Run run;
    run.instrument = args.get("instrument", 1L) != 0;
    run.recorder.set_enabled(run.instrument);
    obs::MetricsRegistry::global().reset();
    if (mode == "pipeline")
      run_pipeline(args, run);
    else if (mode == "render")
      run_render(args, run);
    else
      return usage();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const std::string spans_out = args.get("spans-out", std::string{});
    if (run.instrument && !spans_out.empty())
      DTFE_CHECK_MSG(run.recorder.write_json(spans_out),
                     "cannot write " << spans_out);
    const std::string summary_out = args.get("summary", std::string{});
    if (!summary_out.empty()) {
      std::ofstream f(summary_out);
      f << summary_json(run, wall_s, obs::MetricsRegistry::global().snapshot());
      DTFE_CHECK_MSG(f.good(), "cannot write " << summary_out);
    }
    std::printf("pdtfe_trace %s: %.3f s\n", mode.c_str(), wall_s);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdtfe_trace: %s\n", e.what());
    return 1;
  }
}
