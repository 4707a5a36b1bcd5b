// Multi-process execution: the launcher and worker halves of the socket
// transport (DESIGN.md §9).
//
// The launcher side lives in Engine::run_batch_socket (multiproc.cpp): it
// binds the router socket, forks one worker process per rank — the same
// binary re-entered as `pdtfe pipeline --worker-rank R` — routes frames
// until every rank finishes or dies, then merges the shipped-back
// WorkerPayloads exactly as the thread transport merges in-process results.
//
// This header declares the worker half, which the pdtfe app dispatches to
// before any of its own setup when --worker-rank is present. Everything
// beyond the rank/socket/fault-plan bootstrap arrives over the wire in the
// router's kConfig payload (framework/result_codec.h), so a worker's argv
// never has to round-trip the full flag set.
#pragma once

#include <string>

#include "simmpi/fault.h"
#include "util/cli.h"

namespace dtfe::engine {

/// Bootstrap a worker process needs before the config payload arrives.
struct WorkerOptions {
  int rank = -1;
  int ranks = 0;
  std::string socket_path;
  simmpi::FaultPlan fault_plan;  ///< replayed worker-locally
  bool metrics = false;          ///< launcher had metrics armed
};

/// Worker-process entry: connect to the router, receive the LaunchConfig,
/// run this rank's pipeline, ship the WorkerPayload back. Returns a process
/// exit code (0 on success; 1 after reporting an exception via kError).
int run_worker(const WorkerOptions& opt);

/// Parse the --worker-rank/--ranks/--socket-path/... bootstrap flags and
/// run the worker. The app calls this as its first act when --worker-rank
/// is present.
int run_worker_from_cli(const CliArgs& args);

}  // namespace dtfe::engine
