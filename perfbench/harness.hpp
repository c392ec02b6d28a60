// Shared pieces of the fxtraf benchmark harness: workload parameters,
// per-pass samples, span tracing, host resource probes and the pinned
// oracle values.
//
// The harness stays outside the program.  It times only calls into the
// layers' public entry points and reads counters the program already
// exposes (TrialRun, fault::AuditReport, the per-trial MetricRegistry,
// getrusage); it never reaches into a layer's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/digest.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Kind { kPaperBus, kRing, kFlow };

/// Everything that defines one workload's inputs besides the seed.
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kPaperBus;
  std::vector<std::string> kernels;  ///< paper kernels (bus and flow)
  int processors = 0;                ///< ranks per trial
  int hosts = 0;                     ///< hosts on the topology
  double link_rate_bps = 0.0;
  double scale = 1.0;                ///< registry iteration scaling
  int rounds = 0;                    ///< ring rounds (ring only)
  std::size_t message_bytes = 0;     ///< ring message size (ring only)
  int sim_threads = 0;               ///< PDES workers (0 = serial)
};

/// Oracle inputs and outcome of one trial.
struct TrialCheck {
  std::string label;  ///< kernel name or ring label
  fxtraf::trace::TraceDigest digest;
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  std::uint64_t tcp_retransmissions = 0;
  std::uint64_t pdes_windows = 0;
  bool audit_ok = true;
  double fundamental_hz = 0.0;  ///< paper_bus only
  std::string error;            ///< non-empty when the trial threw
};

/// One pass over a workload's trials.
struct PassSample {
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::uint64_t records = 0;
  double sim_s = 0.0;
  std::vector<TrialCheck> trials;
  /// Per-layer values of this pass, keyed by metric name.
  std::map<std::string, double> layer;
};

/// One closed interval of host time around a call into a layer.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the tracer was created
  double end_s = 0.0;
  int parent = -1;          ///< index into the span list, -1 for a root
  std::uint64_t trial = 0;  ///< shared by every span of one trial
};

/// In-memory span recorder, written out once at the end of the run.
/// Disabled tracers record nothing; Scope still measures time.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t next_trial_id() { return ++trial_ids_; }

  /// Returns the span's index, or -1 when disabled.
  int open(const char* name, std::uint64_t trial, int parent,
           Clock::time_point start);
  void close(int id, Clock::time_point end);

  /// Appends spans recorded by a forked copy of this tracer, which
  /// started from this tracer's state (so parent indices line up).
  void absorb(const std::vector<Span>& spans);

  /// Writes every span as one JSON document; false if the file fails.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::uint64_t trial_ids_ = 0;
  std::vector<Span> spans_;
};

/// Times one call and, when tracing, records it as a span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t trial,
        int parent = -1)
      : tracer_(tracer), start_(Clock::now()),
        id_(tracer.open(name, trial, parent, start_)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }
  /// Ends the span (once) and returns its length in seconds.
  double close() {
    if (!closed_) {
      const Clock::time_point end = Clock::now();
      tracer_.close(id_, end);
      seconds_ = seconds_between(start_, end);
      closed_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int id_;
  bool closed_ = false;
  double seconds_ = 0.0;
};

/// Process CPU time from getrusage (all threads).
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
[[nodiscard]] CpuTimes cpu_times();
/// Largest peak resident set of any finished pass process, in KiB.
[[nodiscard]] double child_peak_rss_kb();
/// Current resident set of this process, in KiB (/proc/self/statm).
[[nodiscard]] double current_rss_kb();
/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int usable_cores();

[[nodiscard]] double median(std::vector<double> values);

/// Digests and fundamentals pinned at the commit that introduced the
/// benchmark.  Keys are "<workload> <seed> <label>"; flow fidelity is
/// RNG-free, so its pins use the seed "*" and hold for every seed.
struct Pins {
  struct Trial {
    fxtraf::trace::TraceDigest digest;
    double fundamental_hz = 0.0;
  };
  std::map<std::string, Trial> trials;
  /// Per-kernel reference fundamental for unpinned seeds:
  /// "<workload> <label>" -> (hz, relative tolerance).
  std::map<std::string, std::pair<double, double>> fundamentals;

  [[nodiscard]] const Trial* find(const std::string& workload,
                                  std::uint64_t seed,
                                  const std::string& label) const;
};

/// Parses the pin file; throws std::runtime_error on a malformed line.
[[nodiscard]] Pins load_pins(const std::string& path);

/// Runs one pass of `spec` in this process.  `traced` turns on trial
/// telemetry so the per-layer counters can be read from the registry.
[[nodiscard]] PassSample run_pass(const WorkloadSpec& spec,
                                  std::uint64_t seed, Tracer& tracer,
                                  bool traced);

/// Runs one pass in a forked child and collects its sample and spans.
/// Every pass then starts from the same fresh heap: a finished trial
/// leaves coroutine frames of its parked service loops allocated, so
/// passes repeated in one process drift slower as the heap fills.  The
/// child also reports that retained heap as apps.heap_retained_kb.  A
/// child that dies yields a sample whose trials carry the error.
[[nodiscard]] PassSample run_pass_isolated(const WorkloadSpec& spec,
                                           std::uint64_t seed,
                                           Tracer& tracer, bool traced);

}  // namespace perfbench
