#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/error.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest-rank p99 when ten samples lie beyond it; above p99 a handful
  // of scheduler hiccups would decide the value.
  const std::size_t p99 = (99 * n + 99) / 100 - 1;
  std::size_t idx = n >= 11 ? n - 11 : n - 1;
  if (n - 1 - p99 >= 10) idx = p99;
  t.value = v[idx];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

// ---------------------------------------------------------------- Tracer

namespace {

std::atomic<std::uint64_t> next_span_id{1};
std::atomic<std::uint32_t> next_thread_id{0};

struct ThreadState {
  std::uint32_t thread = next_thread_id.fetch_add(1);
  std::vector<std::uint64_t> open;  // ids of the open spans, innermost last
  std::uint64_t root = 0;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  ThreadState& ts = thread_state();
  record_.id = next_span_id.fetch_add(1);
  record_.parent = ts.open.empty() ? 0 : ts.open.back();
  if (ts.open.empty()) ts.root = record_.id;
  record_.root = ts.root;
  record_.thread = ts.thread;
  record_.name = name;
  ts.open.push_back(record_.id);
  record_.start_s =
      std::chrono::duration<double>(Clock::now() - tracer_->origin_).count();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_s =
      std::chrono::duration<double>(Clock::now() - tracer_->origin_).count();
  thread_state().open.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->records_.push_back(std::move(record_));
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children run on their parent's thread and nest inside it, so the
  // part of a parent's interval they cover is the sum of their lengths.
  std::unordered_map<std::uint64_t, double> child_s;
  for (const Record& r : records_) {
    if (r.parent != 0) child_s[r.parent] += r.end_s - r.start_s;
  }
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    const auto it = child_s.find(r.id);
    const double covered = it == child_s.end() ? 0.0 : it->second;
    self[layer_of(r.name)] += (r.end_s - r.start_s) - covered;
  }
  return self;
}

double Tracer::total_seconds(const std::string& name,
                             std::size_t* count) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (r.name != name) continue;
    total += r.end_s - r.start_s;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

Value Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Value spans = Value::array();
  for (const Record& r : records_) {
    Value s = Value::object();
    s.set("id", static_cast<std::int64_t>(r.id));
    s.set("parent", static_cast<std::int64_t>(r.parent));
    s.set("root", static_cast<std::int64_t>(r.root));
    s.set("thread", static_cast<std::int64_t>(r.thread));
    s.set("name", r.name);
    s.set("start_s", r.start_s);
    s.set("end_s", r.end_s);
    spans.push_back(std::move(s));
  }
  return spans;
}

double span_mean(const Tracer& tracer, const std::string& name,
                 double scale) {
  std::size_t n = 0;
  const double total = tracer.total_seconds(name, &n);
  return n == 0 ? 0.0 : total / static_cast<double>(n) * scale;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double host_probe_s() {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  // The table's memory comes from a buffer of the probe's own, so the
  // program's heap and allocation pattern cannot move the probe.
  static std::vector<std::byte> arena(std::size_t{8} << 20);
  static std::atomic<std::uint64_t> sink{0};  // keeps the work live
  const double t0 = thread_cpu_s();
  std::pmr::monotonic_buffer_resource memory(
      arena.data(), arena.size(), std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> table(&memory);
  for (std::uint64_t i = 1; i <= 50000; ++i) table[i * kGolden] += i;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 1; i <= 100000; ++i) {
    const auto it = table.find(i * kGolden);  // half of them miss
    if (it != table.end()) sum += it->second;
  }
  sink.fetch_add(sum, std::memory_order_relaxed);
  return thread_cpu_s() - t0;
}

std::vector<double> smoothed_probes(const std::vector<double>& probes) {
  constexpr std::size_t kHalf = 2;
  std::vector<double> out;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::size_t lo = i < kHalf ? 0 : i - kHalf;
    const std::size_t hi = std::min(probes.size(), i + kHalf + 1);
    out.push_back(median(std::vector<double>(probes.begin() + lo,
                                             probes.begin() + hi)));
  }
  return out;
}

double at_reference_speed(double cpu_s, double probe_s) {
  return probe_s > 0 ? cpu_s * kProbeReferenceS / probe_s : cpu_s;
}

HostCpu HostCpu::now() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  HostCpu h;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8 && stat; ++field) {
    double v = 0.0;
    stat >> v;
    h.total += v;
    if (field == 7) h.steal = v;
  }
  return h;
}

double HostCpu::steal_share_since(const HostCpu& before) const {
  const double total_delta = total - before.total;
  return total_delta > 0 ? (steal - before.steal) / total_delta : 0.0;
}

void SetupTimes::report(Outcome& out) const {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < cpu_s.size(); ++i) {
    scaled.push_back(at_reference_speed(cpu_s[i], probe_s[i]));
  }
  out.metrics.set("setup_s", median(scaled), "s");
  auto array = [](const std::vector<double>& v) {
    Value a = Value::array();
    for (double x : v) a.push_back(x);
    return a;
  };
  out.provenance.set("setup_cpu_s", array(cpu_s));
  out.provenance.set("setup_wall_s", array(wall_s));
  out.provenance.set("setup_probe_s", array(probe_s));
}

void loop_metrics(const LoopSummary& loop, bool traced, Outcome& out) {
  const Tail t = tail(loop.latency_s);
  const double p50_ms = median(loop.latency_s) * 1e3;
  if (traced) {
    out.metrics.set("wall.scenarios_per_s", loop.scenarios_per_s, "1/s");
    out.metrics.set("wall.requests_per_s", loop.requests_per_s, "1/s");
    out.metrics.set("wall.op_p50_ms", p50_ms, "ms");
    out.metrics.set("wall.op_tail_ms", t.value * 1e3, "ms");
    out.metrics.set("host.steal_pct", loop.steal_share * 100, "%");
    out.metrics.set("host.probe_ms", loop.probe_s * 1e3, "ms");
  } else {
    out.metrics.set("scenarios_per_cpu_s", loop.scenarios_per_cpu_s,
                    "1/cpu_s");
    out.metrics.set("cpu_ms_per_op", loop.cpu_ms_per_op, "ms");
  }
  Value wall = Value::object();
  wall.set("scenarios_per_s", loop.scenarios_per_s);
  wall.set("requests_per_s", loop.requests_per_s);
  wall.set("op_p50_ms", p50_ms);
  wall.set("op_tail_ms", t.value * 1e3);
  wall.set("op_tail_percentile", t.percentile);
  wall.set("op_samples", static_cast<std::int64_t>(t.samples));
  wall.set("op_beyond_tail", static_cast<std::int64_t>(t.beyond));
  wall.set("host_steal_pct", loop.steal_share * 100);
  out.provenance.set("wall", std::move(wall));
  Value cpu = Value::object();
  cpu.set("raw_cpu_ms_per_op", loop.raw_cpu_ms_per_op);
  cpu.set("host_probe_ms", loop.probe_s * 1e3);
  cpu.set("probe_reference_ms", kProbeReferenceS * 1e3);
  out.provenance.set(traced ? "cpu_untraced_half" : "cpu", std::move(cpu));
}

// --------------------------------------------------------------- Metrics

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

Value Metrics::to_json() const {
  Value out = Value::object();
  for (const Entry& e : entries_) {
    Value m = Value::object();
    m.set("value", e.value);
    m.set("unit", e.unit);
    out.set(e.name, std::move(m));
  }
  return out;
}

std::string Metrics::table() const {
  std::string out;
  char line[160];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof line, "  %-36s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

void finish_trace(const Args& args, const Tracer& tracer, std::size_t units,
                  double untraced_per_s, double traced_per_s, Outcome& out) {
  const double per = static_cast<double>(std::max<std::size_t>(units, 1));
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
    out.metrics.set("self." + layer + "_ms", seconds / per * 1e3, "ms");
  }
  out.metrics.set("trace.overhead_pct",
                  untraced_per_s > 0
                      ? (untraced_per_s - traced_per_s) / untraced_per_s * 100
                      : 0.0,
                  "%");
  out.metrics.set("trace.spans", static_cast<double>(tracer.size()), "count");

  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  Value doc = Value::object();
  doc.set("workload", args.workload);
  doc.set("seed", static_cast<std::int64_t>(args.seed));
  doc.set("spans", tracer.to_json());
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << doc.dump() << "\n";
  if (!file.good()) throw bpvec::Error("cannot write trace file: " + path);
  out.provenance.set("trace_file", path);
}

void Outcome::fail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

}  // namespace perfbench
