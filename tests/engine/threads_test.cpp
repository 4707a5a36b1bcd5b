// Thread-budget invariance suite (ctest -L engine). Each rank computes its
// items one at a time on its own thread and gives the kernels an OpenMP team
// of threads / ranks; grids, checkpoint journals, watchdog containment, and
// fault recovery must not depend on that team size.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "framework/pipeline.h"
#include "nbody/generators.h"
#include "nbody/particles.h"
#include "simmpi/comm.h"
#include "simmpi/fault.h"
#include "util/rng.h"

namespace dtfe {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) return false;
  return std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(double)) == 0;
}

bool bitwise_equal(const FieldGrid& a, const FieldGrid& b) {
  if (a.kind() != b.kind() || a.channels() != b.channels()) return false;
  for (std::size_t c = 0; c < a.channels(); ++c)
    if (!bitwise_equal(a.plane(c), b.plane(c))) return false;
  return true;
}

// ---- fixtures ---------------------------------------------------------------

const ParticleSet& fixture_set() {
  static const ParticleSet set = generate_uniform(4000, 10.0, 7);
  return set;
}

std::vector<Vec3> fixture_centers() {
  return {{5.0, 5.0, 5.0}, {2.5, 3.5, 6.5}, {7.5, 2.0, 4.0},
          {3.0, 8.0, 8.0}, {6.0, 6.5, 3.0}, {4.5, 2.5, 7.0}};
}

PipelineOptions fixture_options() {
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 24;
  opt.keep_grids = true;
  return opt;
}

/// Run the pipeline on `ranks` simulated ranks and collect every completed
/// grid by global request index.
std::map<std::ptrdiff_t, FieldGrid> run_grids(const ParticleSet& set,
                                           const std::vector<Vec3>& centers,
                                           const PipelineOptions& opt,
                                           int ranks) {
  std::mutex mtx;
  std::map<std::ptrdiff_t, FieldGrid> grids;
  simmpi::run(ranks, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < res.items.size(); ++i)
      if (res.items[i].request_index >= 0)
        grids.emplace(res.items[i].request_index, res.grids[i]);
  });
  return grids;
}

// ---- bitwise identity across thread budgets ---------------------------------

// Per-ray seeds make every grid a pure function of the item, so the kernel
// team size (threads / ranks) may change nothing.
TEST(TeamSize, GridsBitwiseIdenticalAcrossThreadCounts) {
  const ParticleSet& set = fixture_set();
  const std::vector<Vec3> centers = fixture_centers();

  PipelineOptions base = fixture_options();
  base.threads = 1;  // one-thread teams on two ranks
  const auto reference = run_grids(set, centers, base, 2);
  ASSERT_EQ(reference.size(), centers.size());

  for (const int threads : {2, 4, 8}) {
    PipelineOptions opt = base;
    opt.threads = threads;
    const auto grids = run_grids(set, centers, opt, 2);
    ASSERT_EQ(grids.size(), reference.size()) << "threads=" << threads;
    for (const auto& [id, ref] : reference) {
      ASSERT_TRUE(grids.count(id)) << "threads=" << threads << " field " << id;
      EXPECT_TRUE(bitwise_equal(grids.at(id), ref))
          << "threads=" << threads << " field " << id;
    }
  }
}

// ---- checkpoint journals across thread budgets ------------------------------

std::map<std::string, std::string> journal_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("journal-rank-", 0) != 0) continue;
    std::ifstream in(e.path(), std::ios::binary);
    out[name] = std::string(std::istreambuf_iterator<char>(in), {});
  }
  return out;
}

// Commit order IS journal append order, so a run with one-thread kernel
// teams and one with four-thread teams must write the exact same journal
// bytes, rank by rank. Work sharing is off here: the load-balance schedule
// comes from a MEASURED timing fit, so under CPU contention two runs can
// legitimately assign items to different ranks — which redistributes records
// across journals without changing their content. A fixed block partition
// makes byte identity a true invariant, which is what this test pins.
TEST(TeamSize, CheckpointJournalsByteIdenticalAcrossThreadCounts) {
  const ParticleSet& set = fixture_set();
  const std::vector<Vec3> centers = fixture_centers();

  const ScratchDir one_dir("pdtfe_threads_ckpt_1");
  const ScratchDir four_dir("pdtfe_threads_ckpt_4");

  PipelineOptions opt = fixture_options();
  opt.load_balance = false;
  opt.checkpoint_dir = one_dir.path();
  opt.threads = 1;
  (void)run_grids(set, centers, opt, 2);

  opt.checkpoint_dir = four_dir.path();
  opt.threads = 4;
  (void)run_grids(set, centers, opt, 2);

  const auto one = journal_bytes(one_dir.path());
  const auto four = journal_bytes(four_dir.path());
  ASSERT_FALSE(one.empty());
  ASSERT_EQ(one.size(), four.size());
  for (const auto& [name, bytes] : one) {
    ASSERT_TRUE(four.count(name)) << name;
    EXPECT_EQ(bytes, four.at(name)) << name << " journal bytes differ";
  }
}

// ---- watchdog with multi-thread kernel teams --------------------------------

// A render on a four-thread team still honors its per-item deadline:
// cancellations are contained (zero grid, no rank death), and every request
// still completes.
TEST(TeamSize, TinyDeadlineContainsItemsWithoutKillingRanks) {
  const ParticleSet& set = fixture_set();
  const std::vector<Vec3> centers = fixture_centers();
  PipelineOptions opt = fixture_options();
  opt.item_deadline_ms = 0.01;  // everything with real work expires
  opt.threads = 8;  // four-thread teams on two ranks

  std::mutex mtx;
  std::size_t cancelled = 0;
  std::set<std::ptrdiff_t> completed;
  std::set<int> dead;
  simmpi::run(2, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    cancelled += res.items_cancelled;
    for (const ItemRecord& it : res.items)
      if (it.request_index >= 0) completed.insert(it.request_index);
    for (const int r : res.failed_ranks) dead.insert(r);
  });
  EXPECT_GT(cancelled, 0u);
  EXPECT_TRUE(dead.empty()) << "the watchdog must contain, not kill";
  EXPECT_EQ(completed.size(), centers.size());
}

// ---- fault recovery with multi-thread kernel teams --------------------------

/// Clustered workload (imbalanced on purpose) so work sharing produces a
/// receiver this test can kill.
ParticleSet clustered_set() {
  ParticleSet set;
  set.box_length = 32.0;
  set.particle_mass = 1.0;
  Rng rng(1234);
  for (int i = 0; i < 20000; ++i)
    set.positions.push_back({rng.uniform(5.0, 11.0), rng.uniform(5.0, 11.0),
                             rng.uniform(5.0, 11.0)});
  for (int o = 1; o < 8; ++o) {
    const double ox = (o & 1) ? 16.0 : 0.0;
    const double oy = (o & 2) ? 16.0 : 0.0;
    const double oz = (o & 4) ? 16.0 : 0.0;
    const int n = 4000 + 400 * o;
    for (int i = 0; i < n; ++i)
      set.positions.push_back({ox + rng.uniform(0.5, 15.5),
                               oy + rng.uniform(0.5, 15.5),
                               oz + rng.uniform(0.5, 15.5)});
  }
  return set;
}

std::vector<Vec3> clustered_centers() {
  std::vector<Vec3> centers;
  for (int ix = 0; ix < 3; ++ix)
    for (int iy = 0; iy < 2; ++iy)
      for (int iz = 0; iz < 2; ++iz)
        centers.push_back({6.0 + 2.0 * ix, 7.0 + 2.0 * iy, 7.0 + 2.0 * iz});
  for (int o = 1; o < 8; ++o) {
    const double ox = (o & 1) ? 16.0 : 0.0;
    const double oy = (o & 2) ? 16.0 : 0.0;
    const double oz = (o & 4) ? 16.0 : 0.0;
    centers.push_back({ox + 5.0, oy + 8.0, oz + 8.0});
    centers.push_back({ox + 11.0, oy + 8.0, oz + 8.0});
  }
  return centers;
}

// Kill a work-sharing receiver mid-run: recovery (RecoverStage) must
// recompute the lost items to grids bitwise identical to an undisturbed run.
// One-thread kernel teams keep libgomp, which ThreadSanitizer cannot see
// into, out of this test's TSan run; the grid tests above vary the team.
TEST(TeamSize, ReceiverKillRecoversBitwiseIdenticalToFaultFreeRun) {
  const ParticleSet set = clustered_set();
  const std::vector<Vec3> centers = clustered_centers();
  PipelineOptions opt;
  opt.field_length = 3.0;
  opt.field_resolution = 16;
  opt.comm_timeout_ms = 500;
  opt.keep_grids = true;
  opt.threads = 4;  // one-thread teams on four ranks

  // Undisturbed baseline; also discover a receiver to kill.
  std::mutex mtx;
  std::map<std::ptrdiff_t, FieldGrid> baseline;
  std::map<int, int> receiver_to_sender;
  simmpi::run(4, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < res.items.size(); ++i)
      if (res.items[i].request_index >= 0)
        baseline.emplace(res.items[i].request_index, res.grids[i]);
    if (!res.schedule.recv_list.empty())
      receiver_to_sender[c.rank()] = res.schedule.recv_list[0];
  });
  ASSERT_EQ(baseline.size(), centers.size());
  ASSERT_FALSE(receiver_to_sender.empty())
      << "the clustered workload produced no work-sharing receiver";

  // Faulted run: the receiver dies at its first work-package operation; live
  // ranks recover its items.
  const int receiver = receiver_to_sender.begin()->first;
  const simmpi::FaultPlan plan = simmpi::FaultPlan::parse(
      "kill:rank=" + std::to_string(receiver) + ",tag=200,at=1");
  simmpi::RunOptions run_opts;
  run_opts.fault_plan = &plan;
  std::map<std::ptrdiff_t, FieldGrid> recovered;
  std::size_t items_recovered = 0;
  std::set<int> dead;
  simmpi::run(4, run_opts, [&](simmpi::Comm& c) {
    const PipelineResult res = run_pipeline(c, set, centers, opt);
    const std::lock_guard<std::mutex> lock(mtx);
    items_recovered += res.items_recovered;
    for (const int r : res.failed_ranks) dead.insert(r);
    for (std::size_t i = 0; i < res.items.size(); ++i)
      if (res.items[i].request_index >= 0)
        recovered.emplace(res.items[i].request_index, res.grids[i]);
  });
  EXPECT_TRUE(dead.count(receiver)) << "the fault plan did not fire";
  EXPECT_GT(items_recovered, 0u) << "nothing was recovered";
  ASSERT_EQ(recovered.size(), centers.size());
  for (const auto& [id, ref] : baseline) {
    ASSERT_TRUE(recovered.count(id)) << "field " << id << " missing";
    EXPECT_TRUE(bitwise_equal(recovered.at(id), ref))
        << "field " << id << " not bitwise identical after recovery";
  }
}

}  // namespace
}  // namespace dtfe
