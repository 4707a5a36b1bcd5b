#include "framework/crash.h"

#include <execinfo.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstring>

#include "obs/report.h"

namespace dtfe {

namespace {

constexpr int kMaxSlots = 256;

struct ItemSlot {
  std::atomic<bool> used{false};
  std::atomic<int> rank{-1};
  std::atomic<std::int64_t> request_index{-1};
  std::atomic<const char*> phase{nullptr};
};

// The process-wide in-flight slots. Constant-initialized, so the signal
// handler can scan them at any point of the process's life.
ItemSlot g_slots[kMaxSlots];

std::atomic<obs::RunReport*> g_report{nullptr};
char g_report_path[1024] = {0};
std::atomic<bool> g_installed{false};

// write(2)-only formatting helpers (no printf in a signal handler).
void put_str(const char* s) {
  const ssize_t ignored = write(STDERR_FILENO, s, std::strlen(s));
  (void)ignored;
}

void put_i64(std::int64_t v) {
  char buf[24];
  char* p = buf + sizeof buf;
  const bool neg = v < 0;
  std::uint64_t u = neg ? static_cast<std::uint64_t>(-(v + 1)) + 1
                        : static_cast<std::uint64_t>(v);
  do {
    *--p = static_cast<char>('0' + (u % 10));
    u /= 10;
  } while (u != 0);
  if (neg) *--p = '-';
  const ssize_t ignored = write(STDERR_FILENO, p, buf + sizeof buf - p);
  (void)ignored;
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
  }
  return "signal";
}

void crash_handler(int sig) {
  put_str("\n=== pdtfe crash: ");
  put_str(signal_name(sig));
  put_str(" ===\n");

  int in_flight = 0;
  for (const ItemSlot& s : g_slots) {
    if (!s.used.load(std::memory_order_acquire)) continue;
    ++in_flight;
    put_str("in-flight: rank ");
    put_i64(s.rank.load(std::memory_order_relaxed));
    put_str(" item ");
    put_i64(s.request_index.load(std::memory_order_relaxed));
    put_str(" phase ");
    const char* ph = s.phase.load(std::memory_order_relaxed);
    put_str(ph != nullptr ? ph : "?");
    put_str("\n");
  }
  if (in_flight == 0) put_str("in-flight: none recorded\n");

  put_str("backtrace:\n");
  void* frames[64];
  const int n = backtrace(frames, 64);
  backtrace_symbols_fd(frames, n, STDERR_FILENO);

  // Best-effort partial report. Everything below is formally outside the
  // async-signal-safe set; the process is crashing regardless, and a torn
  // report file is strictly better than none.
  obs::RunReport* report = g_report.load(std::memory_order_acquire);
  if (report != nullptr && g_report_path[0] != '\0') {
    report->add_summary("crashed_signal", static_cast<double>(sig));
    report->write_json(g_report_path);
    put_str("partial run report: ");
    put_str(g_report_path);
    put_str("\n");
  }

  signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

void install_crash_handler(const std::string& report_path) {
  if (!report_path.empty()) {
    std::strncpy(g_report_path, report_path.c_str(), sizeof g_report_path - 1);
    g_report_path[sizeof g_report_path - 1] = '\0';
  }
  if (g_installed.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE})
    sigaction(sig, &sa, nullptr);
}

void set_crash_report(obs::RunReport* report) {
  g_report.store(report, std::memory_order_release);
}

ScopedCrashItem::ScopedCrashItem(int rank, std::int64_t request_index,
                                 const char* phase) {
  for (int i = 0; i < kMaxSlots; ++i) {
    bool expect = false;
    if (g_slots[i].used.compare_exchange_strong(expect, true,
                                                std::memory_order_acq_rel)) {
      // Publish the fields after claiming; the handler tolerates a slot
      // observed mid-publication (it prints whatever is there).
      g_slots[i].rank.store(rank, std::memory_order_relaxed);
      g_slots[i].request_index.store(request_index, std::memory_order_relaxed);
      g_slots[i].phase.store(phase, std::memory_order_relaxed);
      slot_ = i;
      return;
    }
  }
  // All slots busy: run unmarked rather than fail.
}

ScopedCrashItem::~ScopedCrashItem() {
  if (slot_ >= 0) g_slots[slot_].used.store(false, std::memory_order_release);
}

int crash_items_in_flight() {
  int n = 0;
  for (const ItemSlot& s : g_slots)
    if (s.used.load(std::memory_order_acquire)) ++n;
  return n;
}

}  // namespace dtfe
