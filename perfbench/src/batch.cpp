// The three batch workloads: closed loops with one caller, where each op
// is a fresh serve::Session pricing one manifest — the bpvec_run path.
//
//   sweep_cold         the seeded 8640-scenario analytic grid, no disk
//   disk_replay        the same grid replayed from a cache dir primed
//                      during set-up
//   functional_verify  the functional backend over the zoo, one net per
//                      op; the process-wide weight-plane cache is cleared
//                      before every op, as every CLI run starts without it
//
// A round is one pass over the workload's requests: one op for the two
// grid workloads, six (one per zoo net) for functional_verify. The gated
// numbers are medians over whole rounds of CPU time at the reference
// host speed: after every op, untimed, the host probe runs (see bench.h)
// and the op's CPU time is scaled by the probes around it.
//
// Untraced ops call Session::price. Traced ops make the public calls
// Session::price makes (expand, engine, run_batch per chunk, report) one
// by one under spans, then probe the layers below the engine from
// outside: backends through the registry, workload generators, the disk
// scan, and the functional probe pipeline (pack, kernel, reference, CVU).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/backend/backend_registry.h"
#include "src/backend/functional_backend.h"
#include "src/bitslice/cvu.h"
#include "src/cli/report.h"
#include "src/common/rng.h"
#include "src/core/gemm_executor.h"
#include "src/dnn/gemm_lowering.h"
#include "src/dnn/quantize.h"
#include "src/dnn/reference_ops.h"
#include "src/engine/disk_cache.h"
#include "src/kernels/bitplane.h"
#include "src/kernels/packed_kernels.h"
#include "src/kernels/weight_cache.h"
#include "src/serve/session.h"

namespace perfbench {

namespace fs = std::filesystem;
using bpvec::Rng;
using bpvec::engine::EngineStats;
using bpvec::engine::Scenario;
using bpvec::sim::RunResult;
using Span = Tracer::Span;

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kDirectSamples = 64;  // sweep_cold direct-run checks
constexpr std::size_t kBackendProbes = 8;   // traced: scenarios per op

enum class Kind { kSweepCold, kDiskReplay, kFunctional };

struct Setup {
  Kind kind = Kind::kSweepCold;
  int threads = 1;
  std::string cache_dir;  // disk_replay's primed dir
  // One request per op of a round, and each one's scenario count.
  std::vector<bpvec::serve::PriceRequest> requests;
  std::vector<std::size_t> request_size;
  std::vector<Scenario> scenarios;  // every request's, in order
  std::size_t unique_layers = 0;
  // Checks: digests of sampled scenarios' direct CostBackend::run
  // (sweep_cold), or of every cold-priced scenario (disk_replay).
  std::vector<std::size_t> check_index;
  std::vector<std::uint64_t> check_digest;
  std::size_t shard_files = 0;
  std::uintmax_t dir_bytes = 0;
};

struct OpSample {
  double latency_s = 0.0;
  double cpu_s = 0.0;    // every thread of the process
  double probe_s = 0.0;  // the host probe right after the op
  std::size_t round = 0;
  std::size_t scenarios = 0;
  EngineStats delta;
  double report_bytes = 0.0;  // traced only
};

struct Loop {
  std::vector<OpSample> ops;  // the checked ops, in order
  std::size_t ops_per_round = 1;
  double steal_share = 0.0;

  /// Medians over the complete rounds: a few slow rounds move a mean
  /// over the run far more than they move the median.
  LoopSummary summary() const {
    struct Round {
      std::size_t ops = 0, scenarios = 0;
      double cpu_s = 0.0, raw_cpu_s = 0.0, wall_s = 0.0;
    };
    std::map<std::size_t, Round> rounds;
    LoopSummary s;
    std::vector<double> probes;
    for (const OpSample& op : ops) probes.push_back(op.probe_s);
    const std::vector<double> speed = smoothed_probes(probes);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpSample& op = ops[i];
      Round& r = rounds[op.round];
      ++r.ops;
      r.scenarios += op.scenarios;
      r.cpu_s += at_reference_speed(op.cpu_s, speed[i]);
      r.raw_cpu_s += op.cpu_s;
      r.wall_s += op.latency_s;
      s.latency_s.push_back(op.latency_s);
    }
    std::vector<double> cpu_s, raw_cpu_s, wall_s;
    double n = 0.0;
    for (const auto& [index, r] : rounds) {
      if (r.ops != ops_per_round) continue;
      n = static_cast<double>(r.scenarios);
      cpu_s.push_back(r.cpu_s);
      raw_cpu_s.push_back(r.raw_cpu_s);
      wall_s.push_back(r.wall_s);
    }
    const double per_op = static_cast<double>(ops_per_round);
    const double cpu = median(cpu_s);
    const double wall = median(wall_s);
    s.scenarios_per_cpu_s = cpu > 0 ? n / cpu : 0.0;
    s.cpu_ms_per_op = cpu / per_op * 1e3;
    s.raw_cpu_ms_per_op = median(raw_cpu_s) / per_op * 1e3;
    s.probe_s = median(probes);
    s.scenarios_per_s = wall > 0 ? n / wall : 0.0;
    s.requests_per_s = wall > 0 ? per_op / wall : 0.0;
    s.steal_share = steal_share;
    return s;
  }
};

/// Regular files and their total bytes under `dir`, counted from outside.
std::size_t count_files(const std::string& dir, std::uintmax_t* bytes) {
  std::size_t files = 0;
  *bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    *bytes += entry.file_size();
  }
  return files;
}

/// Session::price's public calls made one by one under spans. Returns
/// the report, whose size is taken outside the op's timing.
Value traced_price(const bpvec::serve::PriceRequest& request,
                   const bpvec::serve::SessionOptions& options,
                   Tracer* tracer, std::vector<RunResult>* results,
                   EngineStats* delta) {
  Span op(tracer, "bench.op");
  std::unique_ptr<bpvec::serve::Session> session;
  {
    Span s(tracer, "serve.session_new");
    session = std::make_unique<bpvec::serve::Session>(options);
  }
  std::vector<Scenario> scenarios;
  {
    Span s(tracer, "cli.expand");
    scenarios = bpvec::cli::expand(request.manifest);
  }
  bpvec::engine::SimEngine* engine = nullptr;
  {
    Span s(tracer, "engine.construct");
    engine = &session->engine();
  }
  const EngineStats before = engine->stats();
  const std::size_t chunk = options.price_chunk;
  results->clear();
  for (std::size_t i = 0; i < scenarios.size(); i += chunk) {
    Span s(tracer, "engine.run_batch");
    const std::size_t n = std::min(chunk, scenarios.size() - i);
    if (i == 0 && n == scenarios.size()) {
      *results = engine->run_batch(scenarios);
      break;
    }
    const std::vector<Scenario> part(scenarios.begin() + i,
                                     scenarios.begin() + i + n);
    for (RunResult& r : engine->run_batch(part)) {
      results->push_back(std::move(r));
    }
  }
  *delta = engine->stats() - before;
  Value report;
  {
    Span s(tracer, "cli.report");
    report = bpvec::cli::build_report(request.manifest.name, scenarios,
                                      *results, *delta, true);
  }
  {
    Span s(tracer, "serve.session_drop");
    session.reset();
  }
  return report;
}

/// One op: a fresh Session pricing the setup's request `r`, through
/// Session::price or, with a tracer, through traced_price.
OpSample price_op(const Setup& su, std::size_t r, Tracer* tracer,
                  std::vector<RunResult>* results) {
  bpvec::serve::SessionOptions options;
  options.threads = su.threads;
  options.cache_dir = su.cache_dir;
  OpSample sample;
  Value report;  // traced only: sized after the op's timing
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  if (tracer == nullptr) {
    bpvec::serve::Session session(options);
    bpvec::serve::Response response = session.price(su.requests[r]);
    *results = std::move(response.results);
    sample.delta = response.delta;
  } else {
    report = traced_price(su.requests[r], options, tracer, results,
                          &sample.delta);
  }
  sample.latency_s = seconds_since(t0);
  sample.cpu_s = process_cpu_s() - cpu0;
  if (!report.is_null()) {
    sample.report_bytes = static_cast<double>(report.dump(1).size());
  }
  sample.scenarios = results->size();
  return sample;
}

/// The check of an op on request `r`; false (and a recorded failure) on
/// any mismatch.
bool check_op(const Setup& su, std::size_t r,
              const std::vector<RunResult>& results, Outcome& out) {
  if (results.size() != su.request_size[r]) {
    out.fail("op returned " + std::to_string(results.size()) + " of " +
             std::to_string(su.request_size[r]) + " results");
    return false;
  }
  if (su.kind == Kind::kFunctional) {
    // The three-way exactness check throws inside pricing; here every
    // result must also carry measured work from the packed kernels.
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].measured_macs <= 0) {
        out.fail("functional result without measured MACs: " +
                 su.requests[r].manifest.name);
        return false;
      }
    }
    return true;
  }
  for (std::size_t j = 0; j < su.check_index.size(); ++j) {
    const std::size_t i = su.check_index[j];
    if (result_digest(results[i]) != su.check_digest[j]) {
      out.fail(std::string(su.kind == Kind::kDiskReplay
                               ? "disk replay differs from the cold sweep: "
                               : "engine result differs from direct "
                                 "CostBackend::run: ") +
               su.scenarios[i].id);
      return false;
    }
  }
  return true;
}

/// Timed closed loop of whole rounds for `seconds` (the last round may
/// run past them). The host probe follows every op; the probe and the
/// op's check stay outside its timing.
Loop run_loop(const Setup& su, double seconds, Tracer* tracer, Outcome& out,
              const std::function<void(const std::vector<RunResult>&)>&
                  after_op = {}) {
  Loop loop;
  loop.ops_per_round = su.requests.size();
  const HostCpu host = HostCpu::now();
  const auto start = Clock::now();
  for (std::size_t round = 0; seconds_since(start) < seconds; ++round) {
    for (std::size_t r = 0; r < su.requests.size(); ++r) {
      if (su.kind == Kind::kFunctional) {
        bpvec::kernels::WeightPlaneCache::instance().clear();
      }
      std::vector<RunResult> results;
      OpSample sample;
      ++out.attempted;
      if (!guarded(out, "op",
                   [&] { sample = price_op(su, r, tracer, &results); })) {
        continue;
      }
      sample.probe_s = host_probe_s();
      sample.round = round;
      if (!check_op(su, r, results, out)) continue;
      loop.ops.push_back(sample);
      if (after_op) after_op(results);
    }
  }
  loop.steal_share = HostCpu::now().steal_share_since(host);
  return loop;
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t count) {
  Rng rng = Rng(seed).fork(5);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

RunResult direct_run(const Scenario& s) {
  return bpvec::backend::BackendRegistry::instance()
      .create(s.backend, s.platform, s.memory)
      ->run(s.network);
}

/// Builds one set-up. Every step is program work a user of the workload
/// also pays before the loop (manifest parse and expand, the disk-cache
/// priming) or the benchmark's own reference, plus one untimed warm-up
/// op so lazy process-wide state exists before timing.
Setup make_setup(Kind kind, const Args& args, int rep, Outcome& out) {
  Setup su;
  su.kind = kind;
  // One engine thread. At HEAD four threads price the grid in the same
  // wall time as one and spend 1.7x the CPU doing it, and that extra
  // CPU (contention) moved with the host's load: CPU per op spread by
  // 28-34% between runs at four threads.
  su.threads = 1;
  const std::vector<Value> docs =
      kind == Kind::kFunctional
          ? functional_manifests(args.seed)
          : std::vector<Value>{analytic_grid_manifest(args.seed)};
  for (const Value& doc : docs) {
    bpvec::serve::PriceRequest request;
    request.manifest = bpvec::cli::parse_manifest(doc);
    const std::vector<Scenario> scenarios =
        bpvec::cli::expand(request.manifest);
    su.requests.push_back(std::move(request));
    su.request_size.push_back(scenarios.size());
    su.scenarios.insert(su.scenarios.end(), scenarios.begin(),
                        scenarios.end());
  }
  su.unique_layers = unique_layer_keys(su.scenarios);

  if (kind == Kind::kSweepCold) {
    su.check_index =
        sample_indices(args.seed, su.scenarios.size(), kDirectSamples);
    for (std::size_t i : su.check_index) {
      su.check_digest.push_back(result_digest(direct_run(su.scenarios[i])));
    }
  }
  if (kind == Kind::kDiskReplay) {
    // Prime a fresh cache dir with a cold run (the stores are set-up
    // work), and keep every cold result's digest as the replay's
    // reference. The cold run is checked against direct runs first.
    su.cache_dir = args.out_dir + "/cache-" + std::to_string(rep);
    fs::remove_all(su.cache_dir);
    std::vector<RunResult> cold;
    price_op(su, 0, nullptr, &cold);
    ++out.attempted;
    for (std::size_t i : sample_indices(args.seed, cold.size(), 16)) {
      if (result_digest(cold[i]) != result_digest(direct_run(su.scenarios[i]))) {
        out.fail("primed result differs from direct run: " +
                 su.scenarios[i].id);
        break;
      }
    }
    for (std::size_t i = 0; i < cold.size(); ++i) {
      su.check_index.push_back(i);
      su.check_digest.push_back(result_digest(cold[i]));
    }
    su.shard_files = count_files(su.cache_dir, &su.dir_bytes);
  }
  if (kind == Kind::kFunctional) {
    bpvec::kernels::WeightPlaneCache::instance().clear();
  }
  std::vector<RunResult> warm;
  ++out.attempted;
  guarded(out, "warm-up op", [&] {
    price_op(su, 0, nullptr, &warm);
    check_op(su, 0, warm, out);
  });
  return su;
}

// ------------------------------------------------------- traced probes

/// Prices sampled scenarios directly through the registry, one span per
/// layer, and checks each against the engine's result.
void probe_backends(const Setup& su, const std::vector<RunResult>& results,
                    Rng& rng, Tracer* tracer, Outcome& out) {
  for (std::size_t p = 0; p < kBackendProbes; ++p) {
    const auto i = static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(su.scenarios.size()) - 1));
    const Scenario& s = su.scenarios[i];
    std::unique_ptr<bpvec::backend::CostBackend> backend;
    {
      Span span(tracer, "backend.create");
      backend = bpvec::backend::BackendRegistry::instance().create(
          s.backend, s.platform, s.memory);
    }
    const std::string name = "backend." + s.backend + ".price_layer";
    std::vector<bpvec::sim::LayerResult> layers;
    for (const bpvec::dnn::Layer& layer : s.network.layers()) {
      Span span(tracer, name.c_str());
      layers.push_back(backend->price_layer(layer));
    }
    RunResult run;
    {
      Span span(tracer, "backend.assemble");
      run = backend->assemble(s.network, std::move(layers));
    }
    ++out.attempted;
    if (result_digest(run) != result_digest(results[i])) {
      out.fail("assembled direct pricing differs from the engine: " + s.id);
    }
  }
}

/// First min(n, m.rows) rows of `m`.
bpvec::dnn::Matrix head_rows(const bpvec::dnn::Matrix& m, std::int64_t n) {
  bpvec::dnn::Matrix out;
  out.rows = std::min(n, m.rows);
  out.cols = m.cols;
  out.data.assign(m.data.begin(),
                  m.data.begin() + static_cast<std::ptrdiff_t>(out.rows * m.cols));
  return out;
}

struct KernelTally {
  std::int64_t macs = 0;
  std::size_t layers = 0;
};

/// The functional probe pipeline of one layer, call by call: the backend's
/// own price_layer, then the probe shape it executes, packed, run through
/// the packed kernel, the dnn reference and the scalar CVU, and checked
/// three ways.
void probe_functional_layer(const bpvec::backend::FunctionalBackend& backend,
                            const bpvec::dnn::Layer& layer, Rng& rng,
                            Tracer* tracer, KernelTally& tally, Outcome& out) {
  namespace kernels = bpvec::kernels;
  namespace dnn = bpvec::dnn;
  {
    Span span(tracer, "backend.functional.price_layer");
    (void)backend.price_layer(layer);
  }
  const dnn::Layer probe = backend.probe_layer(layer);
  const bpvec::backend::FunctionalConfig& fc = backend.functional_config();
  bpvec::bitslice::Cvu cvu({2, 16, 16});
  kernels::KernelStats stats;
  bool ok = true;
  switch (probe.kind) {
    case dnn::LayerKind::kConv: {
      const dnn::ConvParams& p = probe.conv();
      const std::int64_t k = static_cast<std::int64_t>(p.in_c) * p.kh * p.kw;
      dnn::Tensor input(p.in_c, p.in_h, p.in_w);
      for (auto& v : input.data()) v = rng.signed_value(probe.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(p.out_c * k), probe.w_bits);
      kernels::BitPlanes planes;
      {
        Span span(tracer, "kernels.pack");
        planes = kernels::pack_values(weights.data(), p.out_c, k, probe.w_bits);
      }
      std::vector<std::int64_t> packed;
      {
        Span span(tracer, "kernels.kernel");
        packed = kernels::packed_conv(input, planes, p, probe.x_bits, nullptr,
                                      &stats);
      }
      std::vector<std::int64_t> reference;
      {
        Span span(tracer, "dnn.reference");
        reference = dnn::conv2d_reference(input, weights, p);
      }
      ok = packed == reference;
      Span span(tracer, "core.cvu_check");
      const dnn::Matrix a = head_rows(dnn::im2col(input, p), fc.check_rows);
      const dnn::Matrix b =
          head_rows(dnn::weights_as_matrix(weights, p), fc.check_cols);
      const auto cvu_out = bpvec::core::execute_gemm(cvu, a, b, probe.x_bits,
                                                     probe.w_bits);
      const std::int64_t pixels =
          static_cast<std::int64_t>(p.out_h()) * p.out_w();
      for (std::int64_t m = 0; m < a.rows; ++m) {
        for (std::int64_t n = 0; n < b.rows; ++n) {
          ok = ok && cvu_out[static_cast<std::size_t>(m * b.rows + n)] ==
                         reference[static_cast<std::size_t>(n * pixels + m)];
        }
      }
      break;
    }
    case dnn::LayerKind::kFullyConnected: {
      const dnn::FcParams& p = probe.fc();
      const auto input = rng.signed_vector(
          static_cast<std::size_t>(p.in_features), probe.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(p.in_features * p.out_features),
          probe.w_bits);
      kernels::BitPlanes planes;
      {
        Span span(tracer, "kernels.pack");
        planes = kernels::pack_values(weights.data(), p.out_features,
                                      p.in_features, probe.w_bits);
      }
      std::vector<std::int64_t> packed;
      {
        Span span(tracer, "kernels.kernel");
        packed = kernels::packed_fc(input, planes, p, probe.x_bits, nullptr,
                                    &stats);
      }
      std::vector<std::int64_t> reference;
      {
        Span span(tracer, "dnn.reference");
        reference = dnn::fc_reference(input, weights, p);
      }
      ok = packed == reference;
      Span span(tracer, "core.cvu_check");
      const dnn::Matrix a{1, p.in_features, input};
      const dnn::Matrix b = head_rows(
          dnn::Matrix{p.out_features, p.in_features, weights}, fc.check_cols);
      const auto cvu_out = bpvec::core::execute_gemm(cvu, a, b, probe.x_bits,
                                                     probe.w_bits);
      for (std::int64_t n = 0; n < b.rows; ++n) {
        ok = ok && cvu_out[static_cast<std::size_t>(n)] ==
                       reference[static_cast<std::size_t>(n)];
      }
      break;
    }
    case dnn::LayerKind::kPool: {
      const dnn::PoolParams& p = probe.pool();
      dnn::Tensor input(p.channels, p.in_h, p.in_w);
      for (auto& v : input.data()) v = rng.signed_value(probe.x_bits);
      dnn::Tensor packed;
      {
        Span span(tracer, "kernels.kernel");
        packed = kernels::packed_pool(input, p, nullptr, &stats);
      }
      Span span(tracer, "dnn.reference");
      ok = packed.data() == dnn::pool_reference(input, p).data();
      break;
    }
    case dnn::LayerKind::kRecurrent: {
      // One step of the first gate's recurrence; the shift keeps the
      // requantized state off the clamp rails (as the backend does).
      const dnn::RecurrentParams& p = probe.recurrent();
      const std::int64_t k = p.input_size + p.hidden_size;
      int log2k = 0;
      while ((std::int64_t{1} << log2k) < k) ++log2k;
      const int shift =
          std::max(0, log2k + probe.x_bits + probe.w_bits - 1 - probe.x_bits);
      const auto x = rng.signed_vector(static_cast<std::size_t>(p.input_size),
                                       probe.x_bits);
      const auto h = rng.signed_vector(static_cast<std::size_t>(p.hidden_size),
                                       probe.x_bits);
      const auto weights = rng.signed_vector(
          static_cast<std::size_t>(p.hidden_size * k), probe.w_bits);
      kernels::BitPlanes planes;
      {
        Span span(tracer, "kernels.pack");
        planes = kernels::pack_values(weights.data(), p.hidden_size, k,
                                      probe.w_bits);
      }
      std::vector<std::int32_t> packed;
      {
        Span span(tracer, "kernels.kernel");
        packed = kernels::packed_rnn_step(x, h, planes, p.hidden_size, shift,
                                          probe.x_bits, probe.x_bits, nullptr,
                                          &stats);
      }
      {
        Span span(tracer, "dnn.reference");
        ok = packed == dnn::rnn_step_reference(x, h, weights, p.hidden_size,
                                               shift, probe.x_bits);
      }
      Span span(tracer, "core.cvu_check");
      std::vector<std::int32_t> xh = x;
      xh.insert(xh.end(), h.begin(), h.end());
      const dnn::Matrix a{1, k, std::move(xh)};
      const dnn::Matrix b =
          head_rows(dnn::Matrix{p.hidden_size, k, weights}, fc.check_cols);
      const auto cvu_out = bpvec::core::execute_gemm(cvu, a, b, probe.x_bits,
                                                     probe.w_bits);
      for (std::int64_t n = 0; n < b.rows; ++n) {
        ok = ok && dnn::requantize(cvu_out[static_cast<std::size_t>(n)], shift,
                                   probe.x_bits) ==
                       packed[static_cast<std::size_t>(n)];
      }
      break;
    }
  }
  ++out.attempted;
  if (!ok) out.fail("three-way probe check failed: " + layer.name);
  tally.macs += stats.macs;
  ++tally.layers;
}

/// Every distinct layer of the functional grid, on the first config.
void probe_functional(const Setup& su, const Args& args, Tracer* tracer,
                      Outcome& out) {
  const Scenario& first = su.scenarios.front();
  const bpvec::backend::FunctionalBackend backend(
      functional_probe_config(args.seed), first.platform, first.memory);
  const std::uint64_t fp = backend.fingerprint();
  std::vector<std::uint64_t> seen;
  Rng rng = Rng(args.seed).fork(6);
  KernelTally tally;
  for (const Scenario& s : su.scenarios) {
    for (const bpvec::dnn::Layer& layer : s.network.layers()) {
      const std::uint64_t key = backend.layer_key(fp, layer);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      guarded(out, "functional probe", [&] {
        probe_functional_layer(backend, layer, rng, tracer, tally, out);
      });
    }
  }
  const double kernel_s = tracer->total_seconds("kernels.kernel");
  out.metrics.set("kernels.gmacs_per_s",
                  kernel_s > 0 ? static_cast<double>(tally.macs) / kernel_s / 1e9
                               : 0.0,
                  "GMAC/s");
}

/// EngineStats has no operator+; the loop sums the fields it reports.
struct EngineTotals {
  std::size_t submitted = 0, simulations = 0, scenario_hits = 0;
  std::size_t layers_priced = 0, layer_hits = 0, delta_scenarios = 0;
  std::size_t disk_hits = 0, disk_rejected = 0, disk_file_opens = 0;
  std::size_t weight_hits = 0, weight_misses = 0;
  double hash_s = 0, plan_s = 0, price_s = 0, assemble_s = 0;

  void add(const EngineStats& d) {
    submitted += d.scenarios_submitted;
    simulations += d.simulations_run;
    scenario_hits += d.cache_hits;
    layers_priced += d.layers_priced;
    layer_hits += d.layer_cache_hits;
    delta_scenarios += d.delta_scenarios;
    disk_hits += d.disk_hits;
    disk_rejected += d.disk_rejected;
    disk_file_opens += d.disk_file_opens;
    weight_hits += d.weight_cache_hits;
    weight_misses += d.weight_cache_misses;
    hash_s += d.hash_s;
    plan_s += d.plan_s;
    price_s += d.price_s;
    assemble_s += d.assemble_s;
  }
};

void per_layer_metrics(const Setup& su, const Loop& loop, const Tracer& t,
                       Outcome& out) {
  EngineTotals e;
  double report_bytes = 0.0;
  for (const OpSample& op : loop.ops) {
    e.add(op.delta);
    report_bytes += op.report_bytes;
  }
  const double ops = std::max<double>(1.0, static_cast<double>(loop.ops.size()));
  Metrics& m = out.metrics;
  m.set("engine.construct_ms", span_mean(t, "engine.construct", 1e3), "ms");
  m.set("engine.hash_ms", e.hash_s / ops * 1e3, "ms");
  m.set("engine.plan_ms", e.plan_s / ops * 1e3, "ms");
  m.set("engine.price_ms", e.price_s / ops * 1e3, "ms");
  m.set("engine.assemble_ms", e.assemble_s / ops * 1e3, "ms");
  m.set("engine.run_batch_ms", t.total_seconds("engine.run_batch") / ops * 1e3,
        "ms");
  m.set("engine.scenario_hit_rate", hit_rate(e.scenario_hits, e.submitted),
        "ratio");
  m.set("engine.layer_hit_rate",
        hit_rate(e.layer_hits, e.layer_hits + e.layers_priced), "ratio");
  m.set("engine.delta_share", hit_rate(e.delta_scenarios, e.simulations),
        "ratio");
  m.set("engine.layers_priced", static_cast<double>(e.layers_priced) / ops,
        "count");
  m.set("cli.expand_ms", span_mean(t, "cli.expand", 1e3), "ms");
  m.set("cli.report_ms", span_mean(t, "cli.report", 1e3), "ms");
  m.set("cli.report_bytes", report_bytes / ops, "B");
  m.set("workload.generate_us", span_mean(t, "workload.generate", 1e6), "us");
  for (const char* key : {"bpvec", "bit_serial", "bit_serial_loom", "gpu"}) {
    m.set(std::string("backend.") + key + ".price_layer_us",
          span_mean(t, std::string("backend.") + key + ".price_layer", 1e6),
          "us");
  }
  m.set("backend.assemble_us", span_mean(t, "backend.assemble", 1e6), "us");
  if (su.kind == Kind::kDiskReplay) {
    const double opens = static_cast<double>(e.disk_file_opens) / ops;
    m.set("disk.scan_ms", span_mean(t, "disk.scan", 1e3), "ms");
    m.set("disk.hits", static_cast<double>(e.disk_hits) / ops, "count");
    m.set("disk.rejected", static_cast<double>(e.disk_rejected) / ops, "count");
    m.set("disk.shard_files", static_cast<double>(su.shard_files), "count");
    m.set("disk.dir_bytes", static_cast<double>(su.dir_bytes), "B");
    m.set("disk.file_opens_unattributed",
          static_cast<double>(su.shard_files) - opens, "count");
  }
  if (su.kind == Kind::kFunctional) {
    m.set("backend.functional.price_layer_ms",
          span_mean(t, "backend.functional.price_layer", 1e3), "ms");
    m.set("kernels.pack_us", span_mean(t, "kernels.pack", 1e6), "us");
    m.set("kernels.kernel_us", span_mean(t, "kernels.kernel", 1e6), "us");
    m.set("kernels.weight_cache_hit_rate",
          hit_rate(e.weight_hits, e.weight_hits + e.weight_misses), "ratio");
    m.set("dnn.reference_us", span_mean(t, "dnn.reference", 1e6), "us");
    m.set("core.cvu_check_us", span_mean(t, "core.cvu_check", 1e6), "us");
  }
}

Outcome run_batch_workload(Kind kind, const Args& args) {
  Outcome out;
  SetupTimes setup;
  Setup su;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string previous = su.cache_dir;
    setup.measure([&] { su = make_setup(kind, args, rep, out); });
    if (!previous.empty()) fs::remove_all(previous);
  }
  out.provenance.set("scenario_count",
                     static_cast<std::int64_t>(su.scenarios.size()));
  out.provenance.set("unique_layers",
                     static_cast<std::int64_t>(su.unique_layers));
  out.provenance.set("engine_threads", su.threads);
  out.provenance.set("client_connections", 0);
  out.provenance.set("ops_per_round",
                     static_cast<std::int64_t>(su.requests.size()));
  if (kind == Kind::kSweepCold) {
    out.checks.set("sampled_scenarios_vs_direct_run",
                   static_cast<std::int64_t>(su.check_index.size()));
  }
  if (kind == Kind::kDiskReplay) {
    out.checks.set("replay_results_vs_cold_sweep",
                   static_cast<std::int64_t>(su.check_index.size()));
    out.provenance.set("primed_shard_files",
                       static_cast<std::int64_t>(su.shard_files));
  }
  if (kind == Kind::kFunctional) {
    out.checks.set("three_way_exactness_per_priced_layer", true);
  }

  if (!args.trace) {
    const Loop loop = run_loop(su, args.seconds, nullptr, out);
    setup.report(out);
    loop_metrics(loop.summary(), false, out);
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.provenance.set("ops", static_cast<std::int64_t>(loop.ops.size()));
  } else {
    const Loop plain = run_loop(su, args.seconds / 2, nullptr, out);
    Tracer tracer;
    Rng rng = Rng(args.seed).fork(7);
    const bool analytic = kind != Kind::kFunctional;
    const Loop traced = run_loop(
        su, args.seconds / 2, &tracer, out,
        [&](const std::vector<RunResult>& results) {
          if (!analytic) return;
          probe_backends(su, results, rng, &tracer, out);
          probe_generators(su.requests.front().manifest, &tracer);
        });
    if (kind == Kind::kDiskReplay) {
      for (int i = 0; i < 5; ++i) {
        Span span(&tracer, "disk.scan");
        const bpvec::engine::DiskCache scan(su.cache_dir);
      }
    }
    if (kind == Kind::kFunctional) probe_functional(su, args, &tracer, out);
    per_layer_metrics(su, traced, tracer, out);
    loop_metrics(plain.summary(), true, out);
    finish_trace(args, tracer, traced.ops.size(),
                 plain.summary().scenarios_per_cpu_s,
                 traced.summary().scenarios_per_cpu_s, out);
    out.provenance.set("ops", static_cast<std::int64_t>(plain.ops.size() +
                                                        traced.ops.size()));
  }
  if (!su.cache_dir.empty()) fs::remove_all(su.cache_dir);
  return out;
}

}  // namespace

Outcome run_sweep_cold(const Args& args) {
  return run_batch_workload(Kind::kSweepCold, args);
}

Outcome run_disk_replay(const Args& args) {
  return run_batch_workload(Kind::kDiskReplay, args);
}

Outcome run_functional_verify(const Args& args) {
  return run_batch_workload(Kind::kFunctional, args);
}

}  // namespace perfbench
