// One pass of each workload, timed only around calls into the layers'
// public entry points: apps::Trial construction, Trial::finish, the
// Trial destructor, core::characterize, core::FourierTrafficModel::fit, the
// flow::FlowNetwork constructor and apps::run_flow_trial.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/flow_trial.hpp"
#include "apps/trial.hpp"
#include "campaign/seed.hpp"
#include "core/characterization.hpp"
#include "core/fourier_model.hpp"
#include "ethernet/topology.hpp"
#include "flow/network.hpp"
#include "fx/runtime.hpp"
#include "harness.hpp"
#include "pvm/task.hpp"
#include "simcore/coro.hpp"
#include "simcore/rng.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {
namespace {

using namespace fxtraf;

/// Spikes kept by the Fourier traffic model (paper section 7.2).
constexpr std::size_t kFourierComponents = 12;
/// Stagger between consecutive ring ranks' start times.
constexpr std::int64_t kRingSlotNs = 500;

[[nodiscard]] eth::TopologySpec topology_of(const WorkloadSpec& spec) {
  eth::TopologySpec topology;
  if (spec.kind != Kind::kPaperBus) {
    topology.kind = eth::TopologySpec::Kind::kStar;
    topology.link_rate_bps = spec.link_rate_bps;
  }
  return topology;
}

/// Start offset of every ring rank: rank r starts at r * 500 ns plus a
/// seeded jitter below half a slot.  The jitter moves every packet in
/// time but keeps the start order, so each destination's MAC is learned
/// before its first frame arrives and the bridge never floods.
[[nodiscard]] std::vector<sim::Duration> ring_starts(int hosts,
                                                     std::uint64_t seed) {
  sim::Rng rng(campaign::split_seed(seed, 0x5107));
  std::vector<sim::Duration> starts;
  starts.reserve(static_cast<std::size_t>(hosts));
  for (int rank = 0; rank < hosts; ++rank) {
    const auto jitter =
        static_cast<std::int64_t>(rng.next_below(kRingSlotNs / 2));
    starts.push_back(sim::nanos(kRingSlotNs * rank + jitter));
  }
  return starts;
}

/// The staggered neighbour ring of bench/pdes_scale_sweep: every rank
/// waits for its start, then each round sends `bytes` to rank r-1 and
/// receives from rank r+1.  Work per host is fixed, so per-event cost
/// growth with the host count shows directly.
/// The start table is shared, not copied: the runtime copies the rank
/// body once per rank.
[[nodiscard]] fx::FxProgram make_ring(
    int rounds, std::size_t bytes,
    std::shared_ptr<const std::vector<sim::Duration>> starts) {
  fx::FxProgram program;
  program.name = "ring";
  program.processors = static_cast<int>(starts->size());
  program.rank_body = [rounds, bytes, starts = std::move(starts)](
                          fx::FxContext& ctx, int rank) -> sim::Co<void> {
    const int p = ctx.processors();
    pvm::Task& task = ctx.vm().task(rank);
    sim::Simulator& sim = ctx.workstation(rank).simulator();
    co_await sim::delay(sim, (*starts)[static_cast<std::size_t>(rank)]);
    const int dst = (rank + p - 1) % p;
    const int src = (rank + 1) % p;
    for (int round = 0; round < rounds; ++round) {
      pvm::MessageBuilder builder = task.make_builder();
      builder.pack_bytes(bytes);
      co_await task.send(dst, builder.finish(/*tag=*/1 + round));
      co_await task.recv(src, /*tag=*/1 + round);
    }
  };
  return program;
}

[[nodiscard]] double counter_sum(const telemetry::MetricRegistry& reg,
                                 const std::string& name) {
  double total = 0.0;
  for (const auto& [id, counter] : reg.counters()) {
    if (id.name == name) total += static_cast<double>(counter.value());
  }
  return total;
}

[[nodiscard]] double gauge_max(const telemetry::MetricRegistry& reg,
                               const std::string& name) {
  double peak = 0.0;
  for (const auto& [id, gauge] : reg.gauges()) {
    if (id.name == name) peak = std::max(peak, gauge.value());
  }
  return peak;
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Sums one pass's packet-trial counters, then derives the per-layer
/// metrics from them.
class PacketLayers {
 public:
  void add(const apps::TrialRun& run, double construct_s, double finish_s,
           double destroy_s, const CpuTimes& cpu) {
    construct_s_ += construct_s;
    finish_s_ += finish_s;
    destroy_s_ += destroy_s;
    user_s_ += cpu.user_s;
    sys_s_ += cpu.sys_s;
    events_ += static_cast<double>(run.events_executed);
    heap_actions_ +=
        run.allocations_per_event * static_cast<double>(run.events_executed);
    records_ += static_cast<double>(run.packets_seen);
    windows_ += static_cast<double>(run.pdes_windows);
    shards_ = std::max(shards_, static_cast<double>(run.pdes_shards));
    frames_delivered_ += static_cast<double>(run.audit.frames_delivered);
    bridge_forwarded_ +=
        static_cast<double>(run.audit.bridge_frames_forwarded);
    bridge_flooded_ += static_cast<double>(run.audit.bridge_flood_copies);
    drops_ += static_cast<double>(run.audit.drops_total());
    if (run.metrics) registry_.merge(*run.metrics);
  }

  void write(std::map<std::string, double>& layer) const {
    const telemetry::MetricRegistry& reg = registry_;
    layer["apps.construct_s"] = construct_s_;
    layer["apps.finish_s"] = finish_s_;
    layer["apps.destroy_s"] = destroy_s_;
    layer["simcore.events"] = events_;
    layer["simcore.ns_per_event"] = ratio(finish_s_ * 1e9, events_);
    layer["simcore.allocs_per_event"] = ratio(heap_actions_, events_);
    layer["simcore.cancel_ratio"] =
        ratio(counter_sum(reg, "fxtraf_sim_events_cancelled_total"),
              counter_sum(reg, "fxtraf_sim_events_scheduled_total"));
    layer["ethernet.frames_delivered"] = frames_delivered_;
    layer["ethernet.collisions"] =
        counter_sum(reg, "fxtraf_segment_collisions_total");
    layer["ethernet.nic_deferrals"] =
        counter_sum(reg, "fxtraf_nic_deferrals_total");
    layer["ethernet.bridge_forwarded"] = bridge_forwarded_;
    layer["ethernet.bridge_flooded"] = bridge_flooded_;
    layer["ethernet.drops"] = drops_;
    layer["ethernet.port_queue_high_water"] =
        gauge_max(reg, "fxtraf_bridge_port_queue_high_water_frames");
    const double segments = counter_sum(reg, "fxtraf_tcp_segments_sent_total");
    const double retx = counter_sum(reg, "fxtraf_tcp_retransmissions_total");
    layer["net.tcp_segments"] = segments;
    layer["net.tcp_acks"] = counter_sum(reg, "fxtraf_tcp_pure_acks_sent_total");
    layer["net.tcp_retransmissions"] = retx;
    layer["net.tcp_useful_ratio"] = ratio(segments - retx, segments);
    const double messages = counter_sum(reg, "fxtraf_pvm_messages_sent_total");
    const double fragments =
        counter_sum(reg, "fxtraf_pvm_fragments_sent_total");
    layer["pvm.messages"] = messages;
    layer["pvm.fragments"] = fragments;
    layer["pvm.fragments_per_message"] = ratio(fragments, messages);
    layer["fx.barrier_wait_sim_s"] =
        counter_sum(reg, "fxtraf_fx_barrier_wait_ns") / 1e9;
    layer["fx.comm_sim_s"] = counter_sum(reg, "fxtraf_fx_comm_ns") / 1e9;
    layer["trace.records"] = records_;
    layer["pdes.shards"] = shards_;
    layer["pdes.workers"] = gauge_max(reg, "fxtraf_pdes_workers");
    layer["pdes.windows"] = windows_;
    layer["pdes.events_per_window"] = ratio(events_, windows_);
    layer["pdes.cpu_user_s"] = user_s_;
    layer["pdes.cpu_sys_s"] = sys_s_;
    layer["pdes.cores_busy"] = ratio(user_s_ + sys_s_, finish_s_);
  }

 private:
  telemetry::MetricRegistry registry_;
  double construct_s_ = 0, finish_s_ = 0, destroy_s_ = 0;
  double user_s_ = 0, sys_s_ = 0;
  double events_ = 0, heap_actions_ = 0, records_ = 0, windows_ = 0;
  double shards_ = 0, frames_delivered_ = 0, bridge_forwarded_ = 0;
  double bridge_flooded_ = 0, drops_ = 0;
};

[[nodiscard]] TrialCheck check_of(const std::string& label,
                                  const apps::TrialRun& run) {
  TrialCheck check;
  check.label = label;
  check.digest = run.digest;
  check.events = run.events_executed;
  check.records = run.packets_seen;
  check.tcp_retransmissions = run.audit.tcp_retransmissions;
  check.pdes_windows = run.pdes_windows;
  check.audit_ok = run.audit.ok;
  return check;
}

/// Builds and finishes one packet trial.  Only Trial::finish() runs the
/// program: calling run() first would simulate it twice.
[[nodiscard]] apps::TrialRun run_packet_trial(
    const apps::TrialScenario& scenario, Tracer& tracer, std::uint64_t id,
    int parent, PassSample& pass, PacketLayers& layers) {
  std::optional<apps::Trial> trial;
  Scope construct(tracer, "apps.construct", id, parent);
  trial.emplace(scenario);
  const double construct_s = construct.close();
  pass.setup_s += construct_s;

  const CpuTimes before = cpu_times();
  Scope finish(tracer, "apps.finish", id, parent);
  apps::TrialRun run = trial->finish();
  const double finish_s = finish.close();
  const CpuTimes after = cpu_times();

  Scope destroy(tracer, "apps.destroy", id, parent);
  trial.reset();
  layers.add(run, construct_s, finish_s, destroy.close(),
             {after.user_s - before.user_s, after.sys_s - before.sys_s});
  pass.records += run.packets_seen;
  pass.sim_s += run.sim_seconds;
  return run;
}

/// The six paper kernels on the shared 10 Mb bus, each capture pushed
/// through core::characterize and a Fourier fit.
PassSample paper_bus_pass(const WorkloadSpec& spec, std::uint64_t seed,
                          Tracer& tracer, bool traced) {
  PassSample pass;
  PacketLayers layers;
  double characterize_s = 0.0, fit_s = 0.0, bins = 0.0;
  Scope pass_span(tracer, "pass", 0);
  for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
    apps::TrialScenario scenario;
    scenario.kernel = spec.kernels[k];
    scenario.scale = spec.scale;
    scenario.processors = spec.processors;
    scenario.seed = campaign::split_seed(seed, k);
    scenario.telemetry.enabled = traced;

    const std::uint64_t id = tracer.next_trial_id();
    Scope trial_span(tracer, "trial", id, pass_span.id());
    TrialCheck check;
    check.label = scenario.kernel;
    try {
      const apps::TrialRun run = run_packet_trial(
          scenario, tracer, id, trial_span.id(), pass, layers);
      check = check_of(scenario.kernel, run);

      Scope characterize(tracer, "core.characterize", id, trial_span.id());
      const core::TrafficCharacterization traffic =
          core::characterize(run.packets);
      characterize_s += characterize.close();
      bins += static_cast<double>(traffic.bandwidth.size());

      Scope fit(tracer, "core.fourier_fit", id, trial_span.id());
      const core::FourierTrafficModel model =
          core::FourierTrafficModel::fit(traffic.spectrum, kFourierComponents);
      fit_s += fit.close();
      check.fundamental_hz = traffic.fundamental.frequency_hz;
      if (model.components().empty()) {
        check.error = "Fourier fit kept no spectral component";
      }
    } catch (const std::exception& failure) {
      check.error = failure.what();
    }
    pass.trials.push_back(std::move(check));
  }
  pass.wall_s = pass_span.close();
  layers.write(pass.layer);
  pass.layer["core.characterize_s"] = characterize_s;
  pass.layer["core.fourier_fit_s"] = fit_s;
  pass.layer["core.bandwidth_bins"] = bins;
  pass.layer["core.ns_per_bin"] = ratio(characterize_s * 1e9, bins);
  return pass;
}

/// One staggered ring trial on the switched star.
PassSample ring_pass(const WorkloadSpec& spec, std::uint64_t seed,
                     Tracer& tracer, bool traced) {
  apps::TrialScenario scenario;
  scenario.kernel = "ring-" + std::to_string(spec.hosts);
  scenario.processors = spec.hosts;
  scenario.seed = campaign::split_seed(seed, 0);
  scenario.sim_threads = spec.sim_threads;
  scenario.testbed.topology = topology_of(spec);
  scenario.telemetry.enabled = traced;
  auto starts = std::make_shared<const std::vector<sim::Duration>>(
      ring_starts(spec.hosts, seed));
  scenario.make_program = [rounds = spec.rounds, bytes = spec.message_bytes,
                           starts = std::move(starts)] {
    return make_ring(rounds, bytes, starts);
  };

  PassSample pass;
  PacketLayers layers;
  Scope pass_span(tracer, "pass", 0);
  const std::uint64_t id = tracer.next_trial_id();
  {
    Scope trial_span(tracer, "trial", id, pass_span.id());
    TrialCheck check;
    check.label = scenario.kernel;
    try {
      check = check_of(scenario.kernel,
                       run_packet_trial(scenario, tracer, id, trial_span.id(),
                                        pass, layers));
    } catch (const std::exception& failure) {
      check.error = failure.what();
    }
    pass.trials.push_back(std::move(check));
  }
  pass.wall_s = pass_span.close();
  layers.write(pass.layer);
  return pass;
}

/// The paper kernels at P=256 in flow fidelity on a 1M-host star.  The
/// set-up cost is one flow::FlowNetwork build of that star.
PassSample flow_pass(const WorkloadSpec& spec, std::uint64_t seed,
                     Tracer& tracer, bool traced) {
  const eth::TopologySpec topology = topology_of(spec);
  PassSample pass;
  double trial_s = 0.0, events = 0.0, flows = 0.0;
  CpuTimes cpu;
  Scope pass_span(tracer, "pass", 0);
  {
    Scope build(tracer, "flow.network_build", tracer.next_trial_id(),
                pass_span.id());
    const flow::FlowNetwork network(topology, spec.hosts);
    pass.setup_s = build.close();
  }
  for (std::size_t k = 0; k < spec.kernels.size(); ++k) {
    apps::TrialScenario scenario;
    scenario.kernel = spec.kernels[k];
    scenario.scale = spec.scale;
    scenario.processors = spec.processors;
    scenario.hosts = spec.hosts;
    scenario.fidelity = apps::Fidelity::kFlow;
    scenario.seed = campaign::split_seed(seed, k);
    scenario.testbed.topology = topology;
    scenario.telemetry.enabled = traced;
    scenario.telemetry.store_packets = false;

    TrialCheck check;
    check.label = scenario.kernel;
    try {
      const CpuTimes before = cpu_times();
      Scope trial(tracer, "flow.trial", tracer.next_trial_id(),
                  pass_span.id());
      const apps::TrialRun run = apps::run_flow_trial(scenario);
      trial_s += trial.close();
      const CpuTimes after = cpu_times();
      cpu.user_s += after.user_s - before.user_s;
      cpu.sys_s += after.sys_s - before.sys_s;
      check = check_of(scenario.kernel, run);
      events += static_cast<double>(run.events_executed);
      flows += static_cast<double>(run.packets_seen);
      pass.records += run.packets_seen;
      pass.sim_s += run.sim_seconds;
    } catch (const std::exception& failure) {
      check.error = failure.what();
    }
    pass.trials.push_back(std::move(check));
  }
  pass.wall_s = pass_span.close();
  pass.layer["flow.network_build_s"] = pass.setup_s;
  pass.layer["flow.trial_s"] = trial_s;
  pass.layer["flow.events"] = events;
  pass.layer["flow.flows"] = flows;
  pass.layer["flow.ns_per_event"] = ratio(trial_s * 1e9, events);
  pass.layer["trace.records"] = flows;
  pass.layer["pdes.cpu_user_s"] = cpu.user_s;
  pass.layer["pdes.cpu_sys_s"] = cpu.sys_s;
  pass.layer["pdes.cores_busy"] = ratio(cpu.user_s + cpu.sys_s, trial_s);
  return pass;
}

}  // namespace

PassSample run_pass(const WorkloadSpec& spec, std::uint64_t seed,
                    Tracer& tracer, bool traced) {
  switch (spec.kind) {
    case Kind::kPaperBus:
      return paper_bus_pass(spec, seed, tracer, traced);
    case Kind::kRing:
      return ring_pass(spec, seed, tracer, traced);
    case Kind::kFlow:
      return flow_pass(spec, seed, tracer, traced);
  }
  return {};
}

}  // namespace perfbench
