// Typed engine configuration, parsed once at the boundary.
//
// Before the engine layer, every pdtfe subcommand re-derived PipelineOptions
// from raw flags inline, and the flag spelling was the de-facto config
// schema. EngineConfig is the schema: the CLI (or any embedding) resolves
// its inputs into this struct up front, and everything below the boundary —
// Engine, the stages, the kernels — consumes typed fields only.
#pragma once

#include <cstddef>
#include <string>

#include "framework/pipeline.h"
#include "simmpi/fault.h"
#include "util/cli.h"

namespace dtfe::engine {

/// Which CommBackend carries rank-to-rank traffic (DESIGN.md §9).
enum class TransportKind {
  kThread,  ///< in-process: one thread per rank, shared-memory mailboxes
  kSocket,  ///< multi-process: one worker process per rank, Unix sockets
};

struct TransportConfig {
  TransportKind kind = TransportKind::kThread;
  /// Worker executable ("" = re-exec this binary via /proc/self/exe).
  std::string worker_binary;
};

struct EngineConfig {
  int ranks = 8;               ///< simulated MPI ranks per batch
  std::size_t n_fields = 64;   ///< FOF-derived request cap (CLI path)
  std::string snapshot;        ///< snapshot path ("" = in-memory particles)
  PipelineOptions pipeline;    ///< including pipeline.kernel
  simmpi::FaultPlan fault_plan;
  TransportConfig transport;

  /// Parse the `pdtfe pipeline` flag set (the historical spellings,
  /// including --item-deadline-ms auto and --fault-plan grammar). Throws
  /// dtfe::Error naming the flag for an invalid value, a malformed number
  /// included; the caller maps that to its usage exit code.
  static EngineConfig from_cli(const CliArgs& args);
};

}  // namespace dtfe::engine
