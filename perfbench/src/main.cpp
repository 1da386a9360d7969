#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/cli/report.h"
#include "src/kernels/simd.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed by --trace 0, for every workload.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"scenarios_per_cpu_s", "1/cpu_s"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

// Printed by --trace 1, for every workload; a layer a workload bypasses
// reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"engine.construct_ms", "ms"},
    {"engine.hash_ms", "ms"},
    {"engine.plan_ms", "ms"},
    {"engine.price_ms", "ms"},
    {"engine.assemble_ms", "ms"},
    {"engine.run_batch_ms", "ms"},
    {"engine.scenario_hit_rate", "ratio"},
    {"engine.layer_hit_rate", "ratio"},
    {"engine.delta_share", "ratio"},
    {"engine.layers_priced", "count"},
    {"disk.scan_ms", "ms"},
    {"disk.hits", "count"},
    {"disk.rejected", "count"},
    {"disk.shard_files", "count"},
    {"disk.dir_bytes", "B"},
    {"disk.file_opens_unattributed", "count"},
    {"backend.bpvec.price_layer_us", "us"},
    {"backend.bit_serial.price_layer_us", "us"},
    {"backend.bit_serial_loom.price_layer_us", "us"},
    {"backend.gpu.price_layer_us", "us"},
    {"backend.assemble_us", "us"},
    {"backend.functional.price_layer_ms", "ms"},
    {"cli.expand_ms", "ms"},
    {"cli.report_ms", "ms"},
    {"cli.report_bytes", "B"},
    {"workload.generate_us", "us"},
    {"serve.session_ms", "ms"},
    {"serve.handle_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.response_bytes", "B"},
    {"serve.search_p50_ms", "ms"},
    {"serve.search_tail_ms", "ms"},
    {"dse.propose_us", "us"},
    {"dse.evaluate_ms", "ms"},
    {"dse.evaluations_per_request", "count"},
    {"kernels.pack_us", "us"},
    {"kernels.kernel_us", "us"},
    {"kernels.gmacs_per_s", "GMAC/s"},
    {"kernels.weight_cache_hit_rate", "ratio"},
    {"dnn.reference_us", "us"},
    {"core.cvu_check_us", "us"},
    {"self.bench_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.cli_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.backend_ms", "ms"},
    {"self.workload_ms", "ms"},
    {"self.dse_ms", "ms"},
    {"self.disk_ms", "ms"},
    {"self.kernels_ms", "ms"},
    {"self.dnn_ms", "ms"},
    {"self.core_ms", "ms"},
    {"wall.scenarios_per_s", "1/s"},
    {"wall.requests_per_s", "1/s"},
    {"wall.op_p50_ms", "ms"},
    {"wall.op_tail_ms", "ms"},
    {"host.steal_pct", "%"},
    {"host.probe_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

struct Workload {
  const char* name;
  const char* why;
  Outcome (*run)(const Args&);
};

const std::vector<Workload> kWorkloads = {
    {"sweep_cold",
     "bpvec_run cold path on a seeded 8640-scenario analytic grid: "
     "hash, plan, price, assemble and memo fills do the work; no disk, "
     "no kernels",
     run_sweep_cold},
    {"disk_replay",
     "bpvec_run --cache-dir warm path on the same grid, primed in "
     "set-up: disk scan and shard loads do the work; beside sweep_cold "
     "it shows if the disk tier pays",
     run_disk_replay},
    {"serve_warm",
     "warm daemon on a Unix socket, 2 closed-loop clients: memo reads, "
     "report JSON and the socket dominate; 10% fresh DSE searches add "
     "delta-pricing writes",
     run_serve_warm},
    {"functional_verify",
     "functional backend over the zoo with the weight-plane cache "
     "cleared per op: the only workload where kernels, the dnn oracle "
     "and the CVU check do the work",
     run_functional_verify},
};

int usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir DIR] [--commit ID]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  Outcome out;
  try {
    std::filesystem::create_directories(args.out_dir);
    out = workload->run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload->name << " failed: " << e.what()
              << "\n";
    return 1;
  }

  // Every printed metric comes from the fixed lists above; a workload
  // that reports a name outside them is a bug in this benchmark.
  const std::vector<MetricSpec>& specs = args.trace ? kPerLayer : kEndToEnd;
  const Value reported = out.metrics.to_json();
  Metrics metrics;
  for (const MetricSpec& spec : specs) {
    const Value* m = reported.find(spec.name);
    if (m == nullptr && !args.trace) {
      std::cerr << "perfbench: missing metric " << spec.name << "\n";
      return 1;
    }
    metrics.set(spec.name, m == nullptr ? 0.0 : m->at("value").as_double(),
                spec.unit);
  }
  for (const auto& [name, m] : reported.members()) {
    if (metrics.to_json().find(name) == nullptr) {
      std::cerr << "perfbench: unlisted metric " << name << "\n";
      return 1;
    }
  }

  Value provenance = out.provenance;
  provenance.set("workload", workload->name);
  provenance.set("why", workload->why);
  provenance.set("seed", static_cast<std::int64_t>(args.seed));
  provenance.set("seconds", args.seconds);
  provenance.set("trace", args.trace);
  Value host = Value::object();
  host.set("nproc", available_cpus());
  host.set("simd_variant", bpvec::kernels::simd_variant());
  const Value version = bpvec::cli::version_json();
  host.set("compiler", version.at("compiler"));
  host.set("build", version.at("build"));
  host.set("commit", args.commit);
  provenance.set("host", std::move(host));
  provenance.set("checks", out.checks);

  std::cout << "perfbench " << workload->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "provenance " << provenance.dump() << "\n";
  for (const std::string& e : out.errors) std::cout << "FAILED " << e << "\n";
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  std::cout << metrics.table() << "  ops_failed_frac " << failed_frac << " ("
            << out.failed << " of " << out.attempted << ")\n";

  Value result = Value::object();
  result.set("correct", out.failed == 0 && out.attempted > 0);
  result.set("attempted", static_cast<std::int64_t>(out.attempted));
  result.set("failed", static_cast<std::int64_t>(out.failed));
  result.set("metrics", metrics.to_json());
  std::cout << result.dump() << std::endl;
  return 0;
}
