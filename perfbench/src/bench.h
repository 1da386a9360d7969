// perfbench — the repository benchmark.
//
// One binary runs one workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir DIR] [--commit ID]
//
// It generates every input from the seed, sets up (several times; the
// median is setup_s), measures a closed loop for the given seconds,
// checks the outputs and prints one JSON object as its last stdout line.
// --trace 0 prints the end-to-end metrics; --trace 1 runs half the time
// untraced and half traced, and prints the per-layer metrics: spans
// recorded around the calls this benchmark makes into each layer's
// public functions, self time per layer, and the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/backend/functional_backend.h"
#include "src/cli/manifest.h"
#include "src/common/json.h"
#include "src/engine/sim_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using bpvec::common::json::Value;

double seconds_since(Clock::time_point t0);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // trace files and scratch dirs go here
  std::string commit = "unknown";
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);

/// The tail latency: p99 when at least ten samples lie beyond it, else
/// the highest percentile with ten samples beyond it (the max when there
/// are fewer than eleven samples), with the sample counts.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> v);

// --------------------------------------------------------------- tracing

/// In-memory span recorder. A span's parent is the innermost open span
/// on the same thread; `root` is the outermost one (one request or op).
class Tracer {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = none
    std::uint64_t root = 0;
    std::string name;
    double start_s = 0.0;  // since the tracer was created
    double end_s = 0.0;
    std::uint32_t thread = 0;
  };

  /// RAII span. A null tracer makes it a no-op (the untraced run).
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Record record_;
  };

  Tracer();

  /// Self seconds per layer: each span's duration minus its children's,
  /// summed by the span name's prefix before the first '.'.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Total seconds of every span named `name`, and how many there were.
  double total_seconds(const std::string& name, std::size_t* count = nullptr)
      const;

  std::size_t size() const;
  Value to_json() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Adds the trace's own per-layer metrics — self time per layer (ms per
/// op or request, over `units`), the tracing overhead (untraced minus
/// traced scenarios_per_cpu_s, as a share of untraced) and the span count —
/// and writes the spans to <out_dir>/trace-<workload>-<seed>.json.
struct Outcome;
void finish_trace(const Args& args, const Tracer& tracer, std::size_t units,
                  double untraced_per_s, double traced_per_s, Outcome& out);

/// Mean length of the spans named `name`, in `scale` units (1e3: ms).
double span_mean(const Tracer& tracer, const std::string& name, double scale);

// --------------------------------------------------------------- metrics

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"<name>": {"value": v, "unit": u}, ...} in insertion order.
  Value to_json() const;
  std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What one workload run reports.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // first few failure messages
  Metrics metrics;
  Value provenance = Value::object();
  Value checks = Value::object();  // correctness checks run, by name

  void fail(const std::string& message);
};

// ---------------------------------------------------------------- inputs

/// The seeded analytic grid of sweep_cold / disk_replay: 15 grids ×
/// {bpvec, bit_serial, bit_serial_loom, gpu} × 3 platforms × 2 memories
/// × 2 bitwidth modes × (6 zoo nets + 6 generated family members) =
/// 8640 scenarios for every seed. The seed draws the generated widths
/// and bitwidth policies and each grid's overrides.
Value analytic_grid_manifest(std::uint64_t seed);

/// functional_verify's manifests, one per zoo net: the
/// "perfbench_functional" backend (the functional backend with a seeded
/// probe, registered here) over that net × both bitwidth modes × two
/// platform/memory configs. The six together are one round of the
/// workload: all six nets × both modes × both configs.
std::vector<Value> functional_manifests(std::uint64_t seed);

/// serve_warm's price pool: ci_gate, custom_net and fig5–fig8 from
/// bench/manifests, plus four seeded 96-scenario grids.
std::vector<Value> serve_price_pool(std::uint64_t seed);

/// The seeded probe configuration of functional_verify's backend.
bpvec::backend::FunctionalConfig functional_probe_config(std::uint64_t seed);

/// A search manifest whose knob values are drawn from `draw`.
Value fresh_search_manifest(std::uint64_t draw);

/// Where the committed manifests live, relative to the checkout root.
inline const char* kManifestDir = "bench/manifests";

/// Distinct (backend instance × layer) pricing keys of `scenarios` — the
/// most layer pricings a cold engine can perform, the base of the layer
/// hit rate. Computed from outside the engine via the BackendRegistry.
std::size_t unique_layer_keys(
    const std::vector<bpvec::engine::Scenario>& scenarios);

/// Bit-exact digest of a RunResult's packed binary encoding.
std::uint64_t result_digest(const bpvec::sim::RunResult& result);

/// Regenerates `manifest`'s generator workloads, one span per network.
void probe_generators(const bpvec::cli::Manifest& manifest, Tracer* tracer);

double hit_rate(std::size_t hits, std::size_t total);

/// This process's peak resident set, in MiB.
double peak_rss_mb();

/// CPU seconds used by every thread of this process so far.
double process_cpu_s();

/// CPU seconds used by the calling thread so far.
double thread_cpu_s();

/// The host-speed probe: 50k inserts and 100k finds in a fresh hash map
/// — the access pattern of the program's memo tables — on the calling
/// thread, in its CPU seconds; its memory is a buffer of its own, not the
/// program's heap. Neighbours on a shared host slow this machine's CPUs
/// by up to 1.75x for seconds to minutes at a time through the caches and
/// memory they share; that moves CPU time as much as wall time, and the
/// probe, run right next to the measured work, slows with it.
double host_probe_s();

/// The reference probe time: about the probe's CPU time between ops on
/// the 4-vCPU Xeon VM the benchmark was tuned on. The gated times are CPU
/// times scaled by kProbeReferenceS / (the probe time next to them): what
/// the work would cost on a host where the probe takes this long. It sets
/// the scale only; comparisons do not depend on it.
inline constexpr double kProbeReferenceS = 2e-3;

/// `cpu_s` at the reference host speed, given the probe time next to it.
double at_reference_speed(double cpu_s, double probe_s);

/// For each probe of a loop, in order, the median of the five around it
/// (fewer at the ends). One probe is a 2 ms sample, noisier than the host
/// speed it stands for, which moves over seconds; in eight-run sets the
/// spread of the scaled CPU time per op fell from 4.7% to 3.0%
/// (sweep_cold) and from 4.4% to 1.8% (functional_verify).
std::vector<double> smoothed_probes(const std::vector<double>& probes);

/// Host CPU time counters (/proc/stat), to tell how much of a run the
/// hypervisor took away from this machine's CPUs.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;
  static HostCpu now();
  /// Stolen share of all CPU time between `before` and this sample.
  double steal_share_since(const HostCpu& before) const;
};

/// Runs `fn`; a thrown exception becomes a recorded failure.
template <typename Fn>
bool guarded(Outcome& out, const char* what, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    out.fail(std::string(what) + ": " + e.what());
    return false;
  }
}

/// The repeated set-up's timings. setup_s is the median CPU time (every
/// thread) at the reference host speed, for the same reason the loop
/// metrics are: the wall time of a half-second set-up moved with host
/// steal, and its CPU time with the host's speed, by more than its bound.
/// The raw CPU and wall times and the probes are kept as provenance.
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  std::vector<double> probe_s;  // mean of the probes before and after

  template <typename Fn>
  void measure(Fn&& fn) {
    const double before = host_probe_s();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    fn();
    wall_s.push_back(seconds_since(t0));
    cpu_s.push_back(process_cpu_s() - cpu0);
    probe_s.push_back(0.5 * (before + host_probe_s()));
  }
  /// Sets setup_s and records both sample lists.
  void report(Outcome& out) const;
};

/// What one timed loop measured. The CPU numbers (every thread of the
/// process, server and clients included, at the reference host speed)
/// are the gated end-to-end metrics; the wall-clock numbers are what a
/// user waits for, but the hypervisor's CPU steal on a shared host moves
/// them by more than any bound could hold, so they are reported ungated
/// (see README.md).
struct LoopSummary {
  double scenarios_per_cpu_s = 0.0;
  double cpu_ms_per_op = 0.0;
  double raw_cpu_ms_per_op = 0.0;  // as measured, before the scaling
  double probe_s = 0.0;            // median host probe (0: not probed)
  double scenarios_per_s = 0.0;  // wall
  double requests_per_s = 0.0;   // wall
  std::vector<double> latency_s;  // wall, per op or price request
  double steal_share = 0.0;       // of the host's CPU time, during the loop
};

/// Sets the gated end-to-end metrics of an untraced loop, or (`traced`)
/// the wall.* per-layer metrics of the traced run's untraced half; both
/// record the wall numbers and the tail's percentile in provenance.
void loop_metrics(const LoopSummary& loop, bool traced, Outcome& out);

// ------------------------------------------------------------- workloads

Outcome run_sweep_cold(const Args& args);
Outcome run_disk_replay(const Args& args);
Outcome run_functional_verify(const Args& args);
Outcome run_serve_warm(const Args& args);

/// Engine worker threads and client connections: together never more
/// than the host's available CPUs.
int available_cpus();

}  // namespace perfbench
