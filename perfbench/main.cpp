// fxtraf benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--pins FILE] [--spans FILE] [--emit-pins]
//
// Runs passes of one workload, closed loop and each in a forked child,
// until --seconds of host time have gone by (at least three passes),
// checks every trial against the oracle, and prints one JSON object as
// its last line:
//   --trace 0  end-to-end metrics from passes with telemetry and tracing
//              off;
//   --trace 1  per-layer metrics from passes with trial telemetry and
//              span recording on, plus the tracing overhead against
//              untraced passes of the same run.
// --emit-pins runs one pass and prints pin-file lines for its trials.
// Exit status: 0 when every check passed, 1 when one failed, 2 on usage.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "ethernet/topology.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;
/// Relative tolerance on a pinned fundamental (the analysis is
/// deterministic; this only absorbs floating-point reassociation).
constexpr double kPinnedFundamentalTolerance = 1e-9;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  std::string pins_path;
  std::string spans_path;
  bool emit_pins = false;
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"records_per_s", "1/sim_s"},
    {"peak_rss_mb", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"apps.construct_s", "s"},
    {"apps.finish_s", "s"},
    {"apps.destroy_s", "s"},
    {"apps.rss_per_host_kb", "KiB"},
    {"apps.heap_retained_kb", "KiB"},
    {"simcore.events", "count"},
    {"simcore.ns_per_event", "ns"},
    {"simcore.allocs_per_event", "ratio"},
    {"simcore.cancel_ratio", "ratio"},
    {"simcore.ns_per_event_100", "ns"},
    {"simcore.event_cost_growth", "x"},
    {"ethernet.frames_delivered", "count"},
    {"ethernet.collisions", "count"},
    {"ethernet.nic_deferrals", "count"},
    {"ethernet.bridge_forwarded", "count"},
    {"ethernet.bridge_flooded", "count"},
    {"ethernet.drops", "count"},
    {"ethernet.port_queue_high_water", "frames"},
    {"net.tcp_segments", "count"},
    {"net.tcp_acks", "count"},
    {"net.tcp_retransmissions", "count"},
    {"net.tcp_useful_ratio", "ratio"},
    {"pvm.messages", "count"},
    {"pvm.fragments", "count"},
    {"pvm.fragments_per_message", "ratio"},
    {"fx.barrier_wait_sim_s", "sim_s"},
    {"fx.comm_sim_s", "sim_s"},
    {"trace.records", "count"},
    {"pdes.shards", "count"},
    {"pdes.workers", "count"},
    {"pdes.cores", "count"},
    {"pdes.windows", "count"},
    {"pdes.events_per_window", "ratio"},
    {"pdes.cpu_user_s", "s"},
    {"pdes.cpu_sys_s", "s"},
    {"pdes.cores_busy", "ratio"},
    {"pdes.speedup_vs_serial", "x"},
    {"core.characterize_s", "s"},
    {"core.fourier_fit_s", "s"},
    {"core.bandwidth_bins", "count"},
    {"core.ns_per_bin", "ns"},
    {"flow.network_build_s", "s"},
    {"flow.trial_s", "s"},
    {"flow.events", "count"},
    {"flow.flows", "count"},
    {"flow.ns_per_event", "ns"},
    {"bench.trace_overhead", "ratio"},
};

const std::vector<std::string> kPaperKernels = {"sor",  "2dfft", "t2dfft",
                                                "seq",  "hist",  "airshed"};

[[nodiscard]] WorkloadSpec ring_spec(const std::string& name, int hosts,
                                     int sim_threads) {
  WorkloadSpec spec;
  spec.name = name;
  spec.kind = Kind::kRing;
  spec.processors = hosts;
  spec.hosts = hosts;
  spec.link_rate_bps = 100e6;
  spec.rounds = 3;
  spec.message_bytes = 1024;
  spec.sim_threads = sim_threads;
  return spec;
}

/// The four workloads; BENCHMARK.json records the same parameters.
[[nodiscard]] std::vector<WorkloadSpec> workloads() {
  WorkloadSpec bus;
  bus.name = "paper_bus";
  bus.kind = Kind::kPaperBus;
  bus.kernels = kPaperKernels;
  bus.processors = 4;
  bus.hosts = 4;
  bus.link_rate_bps = 10e6;
  bus.scale = 1.0;

  WorkloadSpec flow;
  flow.name = "flow_1m";
  flow.kind = Kind::kFlow;
  flow.kernels = kPaperKernels;
  flow.processors = 256;
  flow.hosts = 1'000'000;
  flow.link_rate_bps = 100e6;

  // The PDES engine adds a coordinating thread to its workers, so
  // nproc - 1 workers keep the process within the machine's cores.
  return {bus, ring_spec("star_10k", 10'000, 0),
          ring_spec("star_10k_pdes", 10'000, std::max(1, usable_cores() - 1)),
          flow};
}

[[nodiscard]] std::string describe(const WorkloadSpec& spec) {
  char line[256];
  const int mbps = static_cast<int>(spec.link_rate_bps / 1e6);
  const std::string topology = spec.kind == Kind::kPaperBus
                                   ? "shared-10Mb bus"
                                   : "star-" + std::to_string(mbps) + "Mb";
  if (spec.kind == Kind::kRing) {
    std::snprintf(line, sizeof line,
                  "%d-host %s, PVM ring %d rounds x %zu B, sim_threads=%d",
                  spec.hosts, topology.c_str(), spec.rounds,
                  spec.message_bytes, spec.sim_threads);
  } else {
    std::snprintf(line, sizeof line,
                  "6 paper kernels, P=%d, %d hosts, %s, scale %g, %s",
                  spec.processors, spec.hosts, topology.c_str(), spec.scale,
                  spec.kind == Kind::kFlow ? "flow fidelity"
                                           : "packet fidelity + analysis");
  }
  return line;
}

/// Runs passes, each in its own child process, until `budget_s` of host
/// time has gone by and at least kMinPasses are done.
[[nodiscard]] std::vector<PassSample> run_passes(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 Tracer& tracer, bool traced,
                                                 double budget_s) {
  std::vector<PassSample> passes;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         seconds_between(start, Clock::now()) < budget_s) {
    passes.push_back(run_pass_isolated(spec, seed, tracer, traced));
  }
  return passes;
}

/// Applies the oracle to every trial, and checks that every repeat of a
/// trial (untraced or traced) reproduces the first one's model counts.
class Checker {
 public:
  Checker(const Pins& pins, std::uint64_t seed) : pins_(pins), seed_(seed) {}

  void check(const std::string& workload,
             const std::vector<PassSample>& passes) {
    for (const PassSample& pass : passes) {
      for (const TrialCheck& trial : pass.trials) {
        ++attempted_;
        const std::string where = workload + "/" + trial.label;
        std::string failure = failure_of(workload, trial);
        const auto [it, inserted] = first_.emplace(where, trial);
        if (failure.empty() && !inserted && !same_model(it->second, trial)) {
          failure = "model counts differ between passes of one seed";
        }
        if (!failure.empty()) {
          ++failed_;
          if (failures_.size() < 20) {
            failures_.push_back(where + ": " + failure);
          }
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t pinned() const { return pinned_; }
  [[nodiscard]] std::uint64_t not_pinned() const { return not_pinned_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  static bool same_model(const TrialCheck& a, const TrialCheck& b) {
    return a.digest == b.digest && a.events == b.events &&
           a.records == b.records &&
           a.tcp_retransmissions == b.tcp_retransmissions &&
           a.pdes_windows == b.pdes_windows &&
           a.fundamental_hz == b.fundamental_hz;
  }

  std::string failure_of(const std::string& workload,
                         const TrialCheck& trial) {
    if (!trial.error.empty()) return "threw: " + trial.error;
    if (!trial.audit_ok) return "conservation audit failed";
    if (trial.records == 0) return "no trace records";
    const bool bus = workload == "paper_bus";
    if (const Pins::Trial* pin = pins_.find(workload, seed_, trial.label)) {
      ++pinned_;
      if (!(pin->digest == trial.digest)) {
        return "digest " + fxtraf::trace::to_string(trial.digest) +
               " != pinned " + fxtraf::trace::to_string(pin->digest);
      }
      if (bus && !near(trial.fundamental_hz, pin->fundamental_hz,
                       kPinnedFundamentalTolerance)) {
        return "fundamental " + std::to_string(trial.fundamental_hz) +
               " Hz != pinned " + std::to_string(pin->fundamental_hz);
      }
      return "";
    }
    ++not_pinned_;
    if (!bus) return "";
    const auto ref = pins_.fundamentals.find(workload + " " + trial.label);
    if (ref == pins_.fundamentals.end()) {
      return trial.fundamental_hz > 0 ? "" : "no fundamental measured";
    }
    // The estimator may report the second harmonic of the true period.
    const auto [hz, tolerance] = ref->second;
    if (!near(trial.fundamental_hz, hz, tolerance) &&
        !near(trial.fundamental_hz, 2 * hz, tolerance)) {
      return "fundamental " + std::to_string(trial.fundamental_hz) +
             " Hz is not within " + std::to_string(tolerance * 100) +
             "% of " + std::to_string(hz) + " Hz or its double";
    }
    return "";
  }

  static bool near(double value, double reference, double tolerance) {
    return std::abs(value - reference) <= tolerance * std::abs(reference);
  }

  const Pins& pins_;
  std::uint64_t seed_;
  /// First outcome of each "<workload>/<label>" trial.
  std::map<std::string, TrialCheck> first_;
  std::uint64_t attempted_ = 0, failed_ = 0, pinned_ = 0, not_pinned_ = 0;
  std::vector<std::string> failures_;
};

[[nodiscard]] std::vector<double> collect(
    const std::vector<PassSample>& passes, double (*get)(const PassSample&)) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const PassSample& pass : passes) values.push_back(get(pass));
  return values;
}

/// Fastest pass.  Co-tenant load on a shared machine only ever slows a
/// pass, and it comes in bursts of seconds, so the minimum over a run's
/// passes tracks the program's cost far more steadily than the median.
[[nodiscard]] double best_wall(const std::vector<PassSample>& passes) {
  double best = passes.front().wall_s;
  for (const PassSample& p : passes) best = std::min(best, p.wall_s);
  return best;
}

[[nodiscard]] std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

/// Prints a per-pass series in run order, then its order statistics.
void print_series(const char* what, const std::vector<double>& values,
                  const char* unit) {
  std::printf("  %-16s", what);
  for (const double v : values) std::printf(" %.4g", v);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::printf(" %s\n  %-16s min %.6g  median %.6g  max %.6g  (n=%zu)\n",
              unit, "", sorted.front(), median(values), sorted.back(),
              values.size());
}

/// Self time per span name: duration minus the part its children cover.
void print_span_profile(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0, self_s = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Totals& t = by_name[spans[i].name];
    const double length = spans[i].end_s - spans[i].start_s;
    ++t.count;
    t.total_s += length;
    t.self_s += length - child_s[i];
  }
  std::printf("  span profile (traced passes):\n");
  for (const auto& [name, t] : by_name) {
    std::printf("    %-20s %6zu spans  %10.4f s total  %10.4f s self\n",
                name.c_str(), t.count, t.total_s, t.self_s);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_bus|star_10k|"
               "star_10k_pdes|flow_1m> --seed <n> --seconds <s> "
               "--trace <0|1> [--pins FILE] [--spans FILE] [--emit-pins]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--emit-pins") {
      opt.emit_pins = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds >= 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1" ? 1 : 0;
    } else if (arg == "--pins") {
      opt.pins_path = value;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds >= 0 &&
         (opt.trace >= 0 || opt.emit_pins);
}

void emit_pins(const WorkloadSpec& spec, std::uint64_t seed,
               const PassSample& pass) {
  const std::string seed_key =
      spec.kind == Kind::kFlow ? "*" : std::to_string(seed);
  for (const TrialCheck& t : pass.trials) {
    std::printf("trial %s %s %s %llu %llu %016llx", spec.name.c_str(),
                seed_key.c_str(), t.label.c_str(),
                static_cast<unsigned long long>(t.digest.packet_count),
                static_cast<unsigned long long>(t.digest.total_bytes),
                static_cast<unsigned long long>(t.digest.fnv1a));
    if (spec.kind == Kind::kPaperBus) {
      std::printf(" %s", number(t.fundamental_hz).c_str());
    }
    std::printf("%s\n", t.error.empty() ? "" : "  # FAILED");
  }
}

int run(const Options& opt) {
  const std::vector<WorkloadSpec> table = workloads();
  const auto found =
      std::find_if(table.begin(), table.end(), [&](const WorkloadSpec& w) {
        return w.name == opt.workload;
      });
  if (found == table.end()) return usage();
  const WorkloadSpec& spec = *found;
  const WorkloadSpec serial = ring_spec("star_10k", spec.hosts, 0);
  const WorkloadSpec ring_100 = ring_spec("star_10k", 100, 0);

  if (opt.emit_pins) {
    Tracer off(false);
    emit_pins(spec, opt.seed, run_pass(spec, opt.seed, off, false));
    if (spec.name == "star_10k") {
      emit_pins(ring_100, opt.seed, run_pass(ring_100, opt.seed, off, false));
    }
    return 0;
  }

  const Pins pins = opt.pins_path.empty() ? Pins{} : load_pins(opt.pins_path);
  const double start_rss_kb = current_rss_kb();
  Tracer tracer(opt.trace == 1);
  Tracer off(false);
  Checker checker(pins, opt.seed);
  std::map<std::string, double> metrics;

  std::printf("perfbench %s seed %llu trace %d: %s\n", spec.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace,
              describe(spec).c_str());

  if (opt.trace == 0) {
    const std::vector<PassSample> passes =
        run_passes(spec, opt.seed, off, false, opt.seconds);
    checker.check(spec.name, passes);
    const auto wall =
        collect(passes, [](const PassSample& p) { return p.wall_s; });
    const auto setup =
        collect(passes, [](const PassSample& p) { return p.setup_s; });
    const auto rate = collect(passes, [](const PassSample& p) {
      return p.sim_s > 0 ? static_cast<double>(p.records) / p.sim_s : 0.0;
    });
    print_series("wall_s", wall, "s");
    print_series("setup_s", setup, "s");
    metrics["wall_s"] = best_wall(passes);
    metrics["setup_s"] = median(setup);
    metrics["records_per_s"] = median(rate);
    metrics["peak_rss_mb"] = child_peak_rss_kb() / 1024.0;
  } else {
    // Thirds of the budget: untraced passes (the overhead baseline), the
    // workload's reference runs, then the traced passes.
    const double third = opt.seconds / 3.0;
    const std::vector<PassSample> plain =
        run_passes(spec, opt.seed, off, false, third);
    checker.check(spec.name, plain);
    if (spec.name == "star_10k") {
      // Same ring at 100 hosts: per-event cost growth with host count.
      const std::vector<PassSample> small =
          run_passes(ring_100, opt.seed, off, true, third);
      checker.check(ring_100.name, small);
      metrics["simcore.ns_per_event_100"] =
          median(collect(small, [](const PassSample& p) {
            const auto it = p.layer.find("simcore.ns_per_event");
            return it == p.layer.end() ? 0.0 : it->second;
          }));
    } else if (spec.name == "star_10k_pdes") {
      const std::vector<PassSample> reference =
          run_passes(serial, opt.seed, off, false, third);
      checker.check(serial.name, reference);
      metrics["pdes.speedup_vs_serial"] =
          best_wall(reference) / best_wall(plain);
    }
    const std::vector<PassSample> traced =
        run_passes(spec, opt.seed, tracer, true, third);
    checker.check(spec.name, traced);

    std::map<std::string, std::vector<double>> layer;
    for (const PassSample& p : traced) {
      for (const auto& [name, value] : p.layer) layer[name].push_back(value);
    }
    for (const auto& [name, values] : layer) metrics[name] = median(values);
    if (metrics.count("simcore.ns_per_event_100") != 0) {
      metrics["simcore.event_cost_growth"] =
          metrics["simcore.ns_per_event"] /
          metrics["simcore.ns_per_event_100"];
    }
    metrics["apps.rss_per_host_kb"] =
        (child_peak_rss_kb() - start_rss_kb) / spec.hosts;
    metrics["pdes.cores"] = usable_cores();
    metrics["bench.trace_overhead"] =
        best_wall(traced) / best_wall(plain) - 1.0;
    print_series("untraced wall_s",
                  collect(plain, [](const PassSample& p) { return p.wall_s; }),
                  "s");
    print_series("traced wall_s",
                  collect(traced, [](const PassSample& p) { return p.wall_s; }),
                  "s");
    print_span_profile(tracer);
    if (!opt.spans_path.empty() && !tracer.write_json(opt.spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
  }

  const double fail_ratio =
      checker.attempted() > 0
          ? static_cast<double>(checker.failed()) /
                static_cast<double>(checker.attempted())
          : 1.0;
  std::printf(
      "  checks: %llu trials, %llu failed, digests %llu pinned / %llu not "
      "pinned\n",
      static_cast<unsigned long long>(checker.attempted()),
      static_cast<unsigned long long>(checker.failed()),
      static_cast<unsigned long long>(checker.pinned()),
      static_cast<unsigned long long>(checker.not_pinned()));
  for (const std::string& failure : checker.failures()) {
    std::printf("  FAIL %s\n", failure.c_str());
  }
  std::printf("  %-32s %s ratio\n", "trial_fail_ratio",
              number(fail_ratio).c_str());

  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : opt.trace == 0 ? std::span<const Metric>(kEndToEnd)
                                        : std::span<const Metric>(kPerLayer)) {
    const double value = metrics.count(m.name) ? metrics[m.name] : 0.0;
    std::printf("  %-32s %s %s\n", m.name, number(value).c_str(), m.unit);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checker.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) return perfbench::usage();
  try {
    return perfbench::run(opt);
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "perfbench: %s\n", failure.what());
    return 1;
  }
}
