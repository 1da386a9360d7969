// Seeded inputs. Every workload's structure (scenario counts, grid
// shapes, request mix) is fixed; the seed draws the contents — generator
// widths and policies, override values, which nets and configs — so runs
// on different seeds do comparable work on different data.
#include <sched.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/backend/backend_registry.h"
#include "src/backend/functional_backend.h"
#include "src/common/binio.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/engine/disk_cache.h"
#include "src/workload/generators.h"

namespace perfbench {

using bpvec::Rng;

namespace {

Value strings(const std::vector<std::string>& items) {
  Value a = Value::array();
  for (const std::string& s : items) a.push_back(s);
  return a;
}

template <typename T>
T pick(Rng& rng, const std::vector<T>& items) {
  return items[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(items.size()) - 1))];
}

/// `n` distinct items of `items`, in draw order.
template <typename T>
std::vector<T> pick_distinct(Rng& rng, std::vector<T> items, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(items.size()) - 1));
    std::swap(items[i], items[j]);
  }
  items.resize(n);
  return items;
}

const std::vector<std::string> kAnalyticBackends = {
    "bpvec", "bit_serial", "bit_serial_loom", "gpu"};
const std::vector<std::string> kPlatforms = {"tpu_like", "bitfusion",
                                             "bpvec"};
const std::vector<std::string> kMemories = {"ddr4", "hbm2"};
const std::vector<std::string> kModes = {"homogeneous8b", "heterogeneous"};
const std::vector<std::string> kZoo = {"alexnet",  "inception_v1",
                                       "resnet18", "resnet50",
                                       "rnn",      "lstm"};

Value platform_override(Rng& rng) {
  Value o = Value::object();
  switch (rng.uniform(0, 3)) {
    case 0:
      o.set("batch_size", pick<int>(rng, {1, 2, 4, 8}));
      break;
    case 1:
      o.set("scratchpad_bytes",
            pick<int>(rng, {131072, 229376, 262144, 524288, 1048576}));
      break;
    case 2:
      o.set("time_chunk", pick<int>(rng, {4, 8, 32}));
      break;
    default:
      o.set("frequency_hz", pick<double>(rng, {250e6, 500e6, 1e9}));
      break;
  }
  return o;
}

}  // namespace

Value analytic_grid_manifest(std::uint64_t seed) {
  Rng rng = Rng(seed).fork(1);

  // Two members of each generator family. Depths are fixed so every
  // seed generates the same layer count; widths and policies are drawn.
  struct Family {
    const char* token;
    int depth;
    std::vector<int> widths;
  };
  const std::vector<Family> families = {
      {"cnn_family", 3, {16, 24, 32, 48, 64}},
      {"mlp_family", 4, {256, 512, 768, 1024, 1536, 2048}},
      {"transformer_block", 2, {128, 192, 256, 384, 512}}};
  const std::vector<std::string> policies = {"uniform:8", "uniform:4",
                                             "uniform:2", "first_last_8"};
  Value workloads = Value::array();
  std::vector<std::string> networks = kZoo;
  for (const Family& f : families) {
    for (int width : pick_distinct(rng, f.widths, 2)) {
      bpvec::workload::GeneratorSpec spec;
      spec.family = f.token;
      spec.depth = f.depth;
      spec.width = width;
      spec.bitwidth_policy = pick(rng, policies);
      Value w = Value::object();
      w.set("generator", spec.family);
      w.set("depth", spec.depth);
      w.set("width", spec.width);
      w.set("bitwidth_policy", spec.bitwidth_policy);
      workloads.push_back(std::move(w));
      networks.push_back(bpvec::workload::generated_name(spec));
    }
  }

  // Grid 0 is the plain grid; grids 1-14 each carry one platform
  // override and a distinct memory bandwidth, and five of them a forced
  // operand bitwidth.
  std::vector<int> bandwidths;
  for (int bw = 8; bw <= 512; bw += 8) bandwidths.push_back(bw);
  bandwidths = pick_distinct(rng, bandwidths, 14);
  const std::vector<int> bit_choices = {2, 4, 8};
  Value grids = Value::array();
  for (int g = 0; g < 15; ++g) {
    Value grid = Value::object();
    grid.set("backends", strings(kAnalyticBackends));
    grid.set("platforms", strings(kPlatforms));
    grid.set("memories", strings(kMemories));
    grid.set("networks", strings(networks));
    grid.set("bitwidth_modes", strings(kModes));
    if (g > 0) {
      grid.set("platform_overrides", platform_override(rng));
      Value mem = Value::object();
      mem.set("bandwidth_gbps",
              static_cast<double>(bandwidths[static_cast<std::size_t>(g - 1)]));
      grid.set("memory_overrides", std::move(mem));
      if (g % 3 == 1) {
        Value bits = Value::object();
        bits.set("x_bits", pick(rng, bit_choices));
        bits.set("w_bits", pick(rng, bit_choices));
        grid.set("bitwidth_override", std::move(bits));
      }
      grid.set("id_suffix", " @g" + std::to_string(g));
    }
    grids.push_back(std::move(grid));
  }

  Value m = Value::object();
  m.set("name", "perfbench_grid");
  m.set("description", "perfbench analytic grid, seed " + std::to_string(seed));
  m.set("workloads", std::move(workloads));
  m.set("grids", std::move(grids));
  return m;
}

bpvec::backend::FunctionalConfig functional_probe_config(std::uint64_t seed) {
  bpvec::backend::FunctionalConfig config;
  config.seed = Rng(seed).fork(2).next_u64();
  return config;
}

std::vector<Value> functional_manifests(std::uint64_t seed) {
  // The functional backend with a seeded probe: same kernels, same
  // three-way check, probe data drawn from this workload's seed.
  const bpvec::backend::FunctionalConfig config =
      functional_probe_config(seed);
  bpvec::backend::BackendRegistry::instance().register_backend(
      "perfbench_functional",
      [config](const bpvec::sim::AcceleratorConfig& platform,
               const bpvec::arch::DramModel& memory) {
        return std::make_unique<bpvec::backend::FunctionalBackend>(
            config, platform, memory);
      });

  // The configs are fixed: which two the seed picked would change how
  // many probe weights the two share, and with it the work per op.
  const std::vector<std::pair<std::string, std::string>> configs = {
      {"bpvec", "ddr4"}, {"tpu_like", "hbm2"}};
  std::vector<Value> manifests;
  for (const std::string& net : kZoo) {
    Value grids = Value::array();
    for (const auto& [platform, memory] : configs) {
      Value grid = Value::object();
      grid.set("backends", strings({"perfbench_functional"}));
      grid.set("platforms", strings({platform}));
      grid.set("memories", strings({memory}));
      grid.set("networks", strings({net}));
      grid.set("bitwidth_modes", strings(kModes));
      grids.push_back(std::move(grid));
    }
    Value m = Value::object();
    m.set("name", "perfbench_functional_" + net);
    m.set("grids", std::move(grids));
    manifests.push_back(std::move(m));
  }
  return manifests;
}

std::vector<Value> serve_price_pool(std::uint64_t seed) {
  std::vector<Value> pool;
  for (const char* name :
       {"ci_gate", "custom_net", "fig5", "fig6", "fig7", "fig8"}) {
    pool.push_back(bpvec::common::json::parse_file(
        std::string(kManifestDir) + "/" + name + ".json"));
  }
  // Fixed backend pairs and all six nets keep the pool's cost the same
  // for every seed; the seed draws platforms and overrides.
  const std::vector<std::vector<std::string>> backend_pairs = {
      {"bpvec", "bit_serial"},
      {"bit_serial_loom", "gpu"},
      {"bpvec", "gpu"},
      {"bit_serial", "bit_serial_loom"}};
  Rng rng = Rng(seed).fork(4);
  for (std::size_t i = 0; i < backend_pairs.size(); ++i) {
    Value grid = Value::object();
    grid.set("backends", strings(backend_pairs[i]));
    grid.set("platforms", strings(pick_distinct(rng, kPlatforms, 2)));
    grid.set("memories", strings(kMemories));
    grid.set("networks", strings(kZoo));
    grid.set("bitwidth_modes", strings(kModes));
    grid.set("platform_overrides", platform_override(rng));
    Value mem = Value::object();
    mem.set("bandwidth_gbps", static_cast<double>(rng.uniform(1, 64) * 8));
    grid.set("memory_overrides", std::move(mem));
    Value grids = Value::array();
    grids.push_back(std::move(grid));
    Value m = Value::object();
    m.set("name", "serve_mix_" + std::to_string(i));
    m.set("grids", std::move(grids));
    pool.push_back(std::move(m));
  }
  return pool;
}

Value fresh_search_manifest(std::uint64_t draw) {
  Rng rng(draw);
  std::vector<int> lanes = pick_distinct<int>(rng, {4, 8, 16, 32}, 2);
  std::sort(lanes.begin(), lanes.end());
  const std::int64_t bw_lo = rng.uniform(8, 128);
  const std::int64_t bw_hi = bw_lo + rng.uniform(8, 128);
  Value space = Value::object();
  Value slices = Value::array();
  for (int s : {1, 2, 4}) slices.push_back(s);
  space.set("cvu_slice_bits", std::move(slices));
  Value lane_values = Value::array();
  for (int l : lanes) lane_values.push_back(l);
  space.set("cvu_lanes", std::move(lane_values));
  Value bws = Value::array();
  bws.push_back(static_cast<double>(bw_lo));
  bws.push_back(static_cast<double>(bw_hi));
  space.set("bandwidth_gbps", std::move(bws));

  Value search = Value::object();
  search.set("backend", "bpvec");
  search.set("platform", "bpvec");
  search.set("memory", "ddr4");
  search.set("network", pick<std::string>(rng, {"alexnet", "resnet18", "lstm"}));
  search.set("bitwidth_mode", "heterogeneous");
  search.set("space", std::move(space));
  search.set("strategy", "grid");
  search.set("objectives", strings({"cycles", "energy"}));
  Value m = Value::object();
  m.set("name", "serve_search");
  m.set("search", std::move(search));
  return m;
}

void probe_generators(const bpvec::cli::Manifest& manifest, Tracer* tracer) {
  for (const bpvec::cli::WorkloadSpec& w : manifest.workloads) {
    if (w.kind != bpvec::cli::WorkloadSpec::Kind::kGenerator) continue;
    for (int depth : w.depths) {
      for (int width : w.widths) {
        for (const std::string& policy : w.policies) {
          bpvec::workload::GeneratorSpec spec;
          spec.family = w.generator;
          spec.depth = depth;
          spec.width = width;
          spec.bitwidth_policy = policy;
          Tracer::Span span(tracer, "workload.generate");
          (void)bpvec::workload::generate(spec);
        }
      }
    }
  }
}

std::size_t unique_layer_keys(
    const std::vector<bpvec::engine::Scenario>& scenarios) {
  using bpvec::backend::BackendRegistry;
  using bpvec::backend::CostBackend;
  struct Instance {
    std::unique_ptr<CostBackend> backend;
    std::uint64_t fingerprint = 0;
  };
  std::map<std::uint64_t, Instance> instances;  // by backend × config
  std::unordered_set<std::uint64_t> keys;
  for (const bpvec::engine::Scenario& s : scenarios) {
    bpvec::common::ConfigHash h;
    h.str(s.backend);
    bpvec::backend::hash_platform(h, s.platform);
    bpvec::backend::hash_memory(h, s.memory);
    Instance& inst = instances[h.h];
    if (inst.backend == nullptr) {
      inst.backend =
          BackendRegistry::instance().create(s.backend, s.platform, s.memory);
      inst.fingerprint = inst.backend->fingerprint();
    }
    for (const bpvec::dnn::Layer& layer : s.network.layers()) {
      keys.insert(inst.backend->layer_key(inst.fingerprint, layer));
    }
  }
  return keys.size();
}

std::uint64_t result_digest(const bpvec::sim::RunResult& result) {
  bpvec::common::binio::Writer w;
  bpvec::engine::run_result_encode(w, result);
  bpvec::common::ConfigHash h;
  h.str(w.bytes());
  return h.h;
}

double hit_rate(std::size_t hits, std::size_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
