// Launcher and worker halves of the multi-process socket transport.
//
// See multiproc.h for the topology. The invariant both halves protect is
// transport equivalence: a socket run must produce bitwise the grids of the
// same thread run, fault plans included, because the stage logic, merge
// order, and fault replay are all transport-independent — only the bytes'
// carrier changes.

#include "engine/multiproc.h"

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "engine/engine.h"
#include "framework/result_codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simmpi/socket_transport.h"
#include "util/error.h"

namespace dtfe::engine {

namespace {

/// Path of the running executable, for re-entering it as a worker.
std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

/// Fork + exec one worker. Returns the child pid; throws on fork failure.
pid_t spawn_worker(const std::string& binary,
                   const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  DTFE_CHECK_MSG(pid >= 0, "fork failed for worker " << binary);
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    // exec failed: the router will see EOF on the never-connected rank and
    // declare it dead; 127 mirrors the shell's command-not-found.
    ::_exit(127);
  }
  return pid;
}

void kill_and_reap(std::vector<pid_t>& pids) {
  for (const pid_t pid : pids)
    if (pid > 0) ::kill(pid, SIGKILL);
  for (pid_t& pid : pids) {
    if (pid <= 0) continue;
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
}

struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    if (!path.empty()) ::rmdir(path.c_str());  // best-effort; needs empty dir
  }
};

}  // namespace

std::vector<FieldResult> Engine::run_batch_socket(
    std::span<const FieldRequest> requests) {
  DTFE_CHECK_MSG(!config_.snapshot.empty(),
                 "--transport=socket needs a snapshot-backed engine (--in): "
                 "worker processes cannot share in-memory particles");
  const int nranks = config_.ranks;

  ScratchDir scratch;
  {
    char tmpl[] = "/tmp/pdtfe-launch-XXXXXX";
    DTFE_CHECK_MSG(::mkdtemp(tmpl) != nullptr,
                   "mkdtemp failed for the launch scratch dir");
    scratch.path = tmpl;
  }

  simmpi::TransportOptions topt;
  topt.socket_path = scratch.path + "/router.sock";
  topt.ranks = nranks;

  // Bind before spawning so no worker can race the listener.
  simmpi::Router router(topt);
  router.listen_socket();

  const std::string binary = config_.transport.worker_binary.empty()
                                 ? self_exe()
                                 : config_.transport.worker_binary;
  DTFE_CHECK_MSG(!binary.empty(),
                 "cannot resolve the worker binary: /proc/self/exe "
                 "unreadable and --worker-binary not given");
  const std::string fault_spec = config_.fault_plan.to_spec();
  const bool metrics = obs::metrics_enabled();

  std::vector<pid_t> pids(static_cast<std::size_t>(nranks), -1);
  std::vector<simmpi::Router::Outcome> outcomes;
  try {
    for (int r = 0; r < nranks; ++r) {
      std::vector<std::string> args = {
          binary,
          "pipeline",
          "--worker-rank", std::to_string(r),
          "--ranks", std::to_string(nranks),
          "--socket-path", topt.socket_path,
          "--worker-metrics", metrics ? "1" : "0",
      };
      if (!fault_spec.empty()) {
        args.push_back("--fault-plan");
        args.push_back(fault_spec);
      }
      pids[static_cast<std::size_t>(r)] = spawn_worker(binary, args);
    }

    router.accept_workers();

    LaunchConfig lc;
    lc.snapshot = config_.snapshot;
    lc.pipeline = config_.pipeline;
    lc.pipeline.keep_grids = true;  // grids travel back in the payload
    lc.field_centers.reserve(requests.size());
    for (const FieldRequest& r : requests) lc.field_centers.push_back(r.center);
    router.broadcast_config(encode_launch_config(lc));

    outcomes = router.route();
  } catch (...) {
    kill_and_reap(pids);
    throw;
  }

  // Reap every worker. SIGKILL the dead ones first as insurance: a rank the
  // heartbeat detector declared dead may only be wedged, not gone.
  for (const int r : router.dead_ranks())
    ::kill(pids[static_cast<std::size_t>(r)], SIGKILL);
  for (pid_t& pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  std::vector<FieldResult> results(requests.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    results[i].request = static_cast<std::ptrdiff_t>(i);

  std::vector<RankRun> runs;
  std::string worker_error;
  for (int r = 0; r < nranks; ++r) {
    simmpi::Router::Outcome& oc = outcomes[static_cast<std::size_t>(r)];
    if (!oc.error.empty() && worker_error.empty())
      worker_error = "rank " + std::to_string(r) + ": " + oc.error;
    // A dead rank ships nothing — absent from rank_runs_, same as a rank
    // the thread transport killed mid-run.
    if (!oc.finished || oc.result.empty()) continue;
    WorkerPayload p = decode_worker_payload(oc.result);
    wire_stats_.merge(p.wire);
    if (metrics) {
      // Fold the worker's registry into the launcher's so run reports see
      // one process's worth of totals regardless of transport — counters,
      // gauges, AND histograms, so launch reports match the thread
      // transport field-for-field (per-phase duration distributions
      // included).
      for (const auto& [name, v] : p.counters)
        if (v != 0.0) obs::add(obs::counter(name), v);
      for (const auto& [name, v] : p.gauges) obs::set(obs::gauge(name), v);
      for (const auto& [name, h] : p.histograms)
        obs::MetricsRegistry::global().merge_histogram(name, h);
    }
    merge_rank_items(p.result, results);
    runs.push_back({r, std::move(p.result)});
  }
  if (!worker_error.empty())
    throw Error("worker failed: " + worker_error);

  std::sort(runs.begin(), runs.end(),
            [](const RankRun& a, const RankRun& b) { return a.rank < b.rank; });
  rank_runs_ = std::move(runs);
  return results;
}

int run_worker(const WorkerOptions& wopt) {
  DTFE_CHECK_MSG(wopt.rank >= 0 && wopt.ranks > wopt.rank,
                 "worker needs 0 <= --worker-rank < --ranks");
  DTFE_CHECK_MSG(!wopt.socket_path.empty(), "worker needs --socket-path");
  if (wopt.metrics) obs::MetricsRegistry::global().set_enabled(true);
  obs::TraceRecorder::set_thread_rank(wopt.rank);

  simmpi::TransportOptions topt;
  topt.socket_path = wopt.socket_path;
  topt.ranks = wopt.ranks;
  topt.fault_plan = wopt.fault_plan.empty() ? nullptr : &wopt.fault_plan;

  simmpi::SocketEndpoint ep(wopt.rank, topt);
  try {
    const LaunchConfig lc = decode_launch_config(ep.config());
    PipelineOptions opt = lc.pipeline;
    opt.keep_grids = true;

    simmpi::Comm comm(&ep, wopt.rank);
    PipelineResult res =
        run_pipeline_from_snapshot(comm, lc.snapshot, lc.field_centers, opt);

    WorkerPayload payload;
    payload.rank = wopt.rank;
    payload.wire = ep.stats();
    if (wopt.metrics) {
      obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
      payload.counters = std::move(snap.counters);
      payload.gauges = std::move(snap.gauges);
      payload.histograms = std::move(snap.histograms);
    }
    payload.result = std::move(res);
    ep.send_result(encode_worker_payload(payload));
    ep.finish();
    return 0;
  } catch (const std::exception& e) {
    ep.send_error(e.what());
    ep.finish();
    return 1;
  }
}

int run_worker_from_cli(const CliArgs& args) {
  WorkerOptions wopt;
  wopt.rank = static_cast<int>(args.get("worker-rank", -1L));
  wopt.ranks = static_cast<int>(args.get("ranks", 0L));
  wopt.socket_path = args.get("socket-path", std::string{});
  wopt.fault_plan =
      simmpi::FaultPlan::parse(args.get("fault-plan", std::string{}));
  wopt.metrics = args.get("worker-metrics", 0L) != 0;
  return run_worker(wopt);
}

}  // namespace dtfe::engine
