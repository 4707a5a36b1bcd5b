// Single source of truth for pipeline phase identity.
//
// Three subsystems must agree, by construction, on what a "phase" is called:
//   * PhaseTimes accumulation + the "pipeline"-category trace spans emitted
//     by the stages (tests/obs asserts their cpu_s args sum to
//     PhaseTimes::total(), so the span names are part of the contract),
//   * the per-rank run-report rows written by the pdtfe CLI, and
//   * the crash-diagnostics in-flight slots, whose phase labels must be
//     string literals with static storage (the signal handler prints the
//     pointer's target after the fault).
// Every producer takes its name from here; nothing else spells them out.
#pragma once

namespace dtfe::engine::phases {

/// Trace-span category shared by every stage span (tests sum cpu_s over it).
inline constexpr const char* kCategory = "pipeline";

// Stage-level span names (one per PhaseTimes field, plus the pack/unpack
// sub-spans that accumulate into work_share).
inline constexpr const char* kPartition = "pipeline.partition";
inline constexpr const char* kModel = "pipeline.model";
inline constexpr const char* kWorkShare = "pipeline.work_share";
inline constexpr const char* kPack = "pipeline.pack";
inline constexpr const char* kUnpack = "pipeline.unpack";
inline constexpr const char* kRecover = "pipeline.recover";

// Per-item span names (re-emitted with the exact cpu_s accumulated into
// PhaseTimes::triangulate / ::render).
inline constexpr const char* kItemTriangulate = "item.triangulate";
inline constexpr const char* kItemRender = "item.render";

// Request-planning spans of `pdtfe pipeline`, before Engine::run_batch: the
// snapshot read and the FOF halo finding that picks the field centers. Their
// own category: they are process set-up, not PhaseTimes, so they must not add
// to the "pipeline" category's cpu_s sum.
inline constexpr const char* kPlanningCategory = "planning";
inline constexpr const char* kReadSnapshot = "planning.read_snapshot";
inline constexpr const char* kFindFofGroups = "planning.find_fof_groups";

// Crash-diagnostics in-flight labels: which execution path owned the item when
// a hard fault hit. Must stay string literals (see framework/crash.h).
inline constexpr const char* kInFlightModelSample = "model_sample";
inline constexpr const char* kInFlightLocal = "execute_local";
inline constexpr const char* kInFlightReceived = "received";
inline constexpr const char* kInFlightFallback = "fallback";
inline constexpr const char* kInFlightRecover = "recover";

// Run-report per-rank row keys (obs::RunReport::add_rank_values).
inline constexpr const char* kReportPartition = "partition_s";
inline constexpr const char* kReportModel = "model_s";
inline constexpr const char* kReportWorkShare = "work_share_s";
inline constexpr const char* kReportTriangulate = "triangulate_s";
inline constexpr const char* kReportRender = "render_s";
inline constexpr const char* kReportRecover = "recover_s";
inline constexpr const char* kReportTotal = "total_s";

}  // namespace dtfe::engine::phases
