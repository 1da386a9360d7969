// serve_warm: an in-process serve::Server on a Unix socket, driven by
// closed-loop client connections (two when the host has three or more
// CPUs) with a seeded request stream. 90% of requests are price requests
// drawn from a pool of small-to-medium manifests, every one warmed during
// set-up; 10% are search requests whose knob values are drawn fresh per
// request. Every served price report must be byte-identical to a
// set-up-time Session's report, and the ci_gate one to the committed
// golden; sampled served searches are replayed on that Session too.
//
// The traced run adds spans around the client's requests and, after the
// loop, probes the layers behind the socket from outside on the same warm
// server: Server::handle_line, Session::price, cli::expand and
// build_report around SimEngine::run_batch, workload::generate, and
// dse::run_search with a timing strategy and evaluator.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/cli/report.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/dse/search.h"
#include "src/dse/strategy.h"
#include "src/serve/server.h"
#include "src/serve/session.h"

namespace perfbench {

using bpvec::Rng;
using bpvec::engine::EngineStats;
using Span = Tracer::Span;

namespace {

constexpr int kSetupRepeats = 5;  // set-up is short; more samples steady it
constexpr double kSearchShare = 0.10;
// The loop runs in segments of this length. Between two, with the
// clients stopped and the server idle, the host probe runs on this
// thread (untimed); the probes around a segment scale its CPU time, as
// they scale each batch op's.
constexpr double kSegmentS = 1.0;
constexpr std::size_t kReplayedSearches = 3;  // per client and loop
constexpr int kDseProbes = 6;
const char* kGolden = "tests/golden/ci_gate.json";

struct PoolItem {
  std::string name;
  bpvec::cli::Manifest manifest;
  std::string line;      // the price request envelope
  std::string expected;  // the set-up Session's report, dump(1)
  std::size_t scenarios = 0;
};

std::string envelope(const char* op, const Value& manifest) {
  Value e = Value::object();
  e.set("op", op);
  e.set("manifest", manifest);
  e.set("base_dir", kManifestDir);
  e.set("deterministic_report", true);
  return e.dump();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw bpvec::Error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// A Server running on its own thread; stopped and joined on destruction.
class RunningServer {
 public:
  RunningServer(const std::string& socket_path, int threads) {
    bpvec::serve::ServerOptions options;
    options.socket_path = socket_path;
    options.session.threads = threads;
    server_ = std::make_unique<bpvec::serve::Server>(options);
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = e.what();
      }
    });
  }
  ~RunningServer() {
    server_->request_stop();
    thread_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  bpvec::serve::Server& server() { return *server_; }
  std::string error() {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  std::unique_ptr<bpvec::serve::Server> server_;
  std::mutex mu_;
  std::string error_;
  std::thread thread_;
};

/// One client connection speaking the newline-delimited protocol.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
      throw bpvec::Error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    // The server binds on its own thread; retry until it listens.
    const auto start = Clock::now();
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw bpvec::Error("socket(): " + std::string(strerror(errno)));
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (seconds_since(start) > 10.0) {
        throw bpvec::Error("cannot connect to " + socket_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line; returns the final response line (heartbeats
  /// are skipped).
  std::string request(const std::string& line) {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw bpvec::Error("send failed");
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string response = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        if (response.rfind("{\"status\":\"running\"", 0) == 0) continue;
        return response;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw bpvec::Error("connection closed by the server");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The report of a final response line, or a failure.
std::string served_report(const std::string& response, Outcome& out) {
  const Value v = bpvec::common::json::parse(response);
  const Value* status = v.find("status");
  const Value* report = v.find("report");
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok" || report == nullptr) {
    const Value* error = v.find("error");
    out.fail("request failed: " +
             (error != nullptr && error->is_string() ? error->as_string()
                                                     : response.substr(0, 200)));
    return {};
  }
  return report->dump(1);
}

struct Setup {
  int engine_threads = 1;
  int clients = 1;
  std::string socket_path;
  std::vector<PoolItem> pool;
  std::unique_ptr<bpvec::serve::Session> reference;
  std::unique_ptr<RunningServer> server;
  double engine_construct_s = 0.0;
  std::size_t unique_layers = 0;
};

void make_setup(const Args& args, Setup& su, Outcome& out) {
  const int cpus = available_cpus();
  su.clients = cpus >= 3 ? 2 : 1;
  // One engine thread, as in the batch workloads. A warm request takes
  // about a millisecond; with two engine threads behind each of the two
  // connections the process ran more busy threads than CPUs, and its CPU
  // per request spread by 8-13% between runs (2-3% at one thread).
  su.engine_threads = 1;
  su.pool.clear();

  bpvec::serve::SessionOptions options;
  options.threads = su.engine_threads;
  su.reference = std::make_unique<bpvec::serve::Session>(options);
  std::vector<bpvec::engine::Scenario> all;
  for (const Value& doc : serve_price_pool(args.seed)) {
    PoolItem item;
    item.manifest = bpvec::cli::parse_manifest(doc, kManifestDir);
    item.name = item.manifest.name;
    item.line = envelope("price", doc);
    bpvec::serve::PriceRequest request;
    request.manifest = item.manifest;
    request.deterministic_report = true;
    const bpvec::serve::Response r = su.reference->price(request);
    item.expected = r.report.dump(1);
    item.scenarios = r.results.size();
    all.insert(all.end(), r.scenarios.begin(), r.scenarios.end());
    ++out.attempted;
    if (item.name == "ci_gate" && item.expected != read_file(kGolden)) {
      out.fail("ci_gate report differs from " + std::string(kGolden));
    }
    su.pool.push_back(std::move(item));
  }
  su.unique_layers = unique_layer_keys(all);

  su.server = std::make_unique<RunningServer>(su.socket_path,
                                              su.engine_threads);
  const auto t0 = Clock::now();
  (void)su.server->server().session().engine();
  su.engine_construct_s = seconds_since(t0);
  // Warm every pool manifest through the socket, checking each report.
  Client client(su.socket_path);
  for (const PoolItem& item : su.pool) {
    ++out.attempted;
    const std::string report = served_report(client.request(item.line), out);
    if (!report.empty() && report != item.expected) {
      out.fail("warm-up served report differs: " + item.name);
    }
  }
}

struct ClientLog {
  std::vector<double> price_latency;
  std::vector<std::size_t> price_item;
  std::vector<double> search_latency;
  // Completion time since the loop started, and scenarios served (0 for
  // a search), of every successful request.
  std::vector<std::pair<double, std::size_t>> completions;
  std::size_t requests = 0;
  std::size_t scenarios = 0;
  double response_bytes = 0.0;
  std::vector<std::pair<Value, std::string>> searches;  // manifest, report
  Outcome checks;  // attempted/failed of this client's requests
};

/// Sends requests on one connection until `until_s` after `start`.
void client_loop(const Setup& su, std::uint64_t stream,
                 Clock::time_point start, double until_s, Tracer* tracer,
                 ClientLog& log) {
  Rng rng(stream);
  try {
    Client client(su.socket_path);
    while (seconds_since(start) < until_s) {
      const bool search = rng.uniform01() < kSearchShare;
      std::size_t item = 0;
      Value search_doc;
      std::string line;
      if (search) {
        search_doc = fresh_search_manifest(rng.next_u64());
        line = envelope("search", search_doc);
      } else {
        item = static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(su.pool.size()) - 1));
        line = su.pool[item].line;
      }
      ++log.checks.attempted;
      ++log.requests;
      std::string response;
      double latency = 0.0;
      {
        Span span(tracer, "bench.request");
        const auto t0 = Clock::now();
        response = client.request(line);
        latency = seconds_since(t0);
      }
      const std::string report = served_report(response, log.checks);
      if (report.empty()) continue;
      if (search) {
        log.completions.emplace_back(seconds_since(start), 0);
        log.search_latency.push_back(latency);
        if (log.searches.size() < kReplayedSearches) {
          log.searches.emplace_back(std::move(search_doc), report);
        }
        continue;
      }
      if (report != su.pool[item].expected) {
        log.checks.fail("served report differs from the Session's: " +
                        su.pool[item].name);
        continue;
      }
      log.completions.emplace_back(seconds_since(start),
                                   su.pool[item].scenarios);
      log.price_latency.push_back(latency);
      log.price_item.push_back(item);
      log.scenarios += su.pool[item].scenarios;
      log.response_bytes += static_cast<double>(response.size());
    }
  } catch (const std::exception& e) {
    log.checks.fail(std::string("client: ") + e.what());
  }
}

struct Loop {
  ClientLog merged;
  // Per segment: CPU seconds of every thread of the process, server
  // included, at the reference host speed; requests; scenarios.
  struct Segment {
    double cpu_s = 0.0;
    double raw_cpu_s = 0.0;
    double requests = 0.0;
    double scenarios = 0.0;
  };
  std::vector<Segment> segments;
  double probe_s = 0.0;  // median host probe between segments
  // Medians over the run's whole one-second windows: a stall of a few
  // hundred milliseconds moves one window, not the reported rate.
  double window_requests_per_s = 0.0;
  double window_scenarios_per_s = 0.0;
  double steal_share = 0.0;

  LoopSummary summary() const {
    LoopSummary s;
    // Medians over the segments: a few slow seconds move a mean over the
    // run far more than they move the median.
    std::vector<double> per_cpu_s, ms_per_request, raw_ms_per_request;
    for (const Segment& g : segments) {
      if (g.requests == 0 || g.cpu_s <= 0) continue;
      per_cpu_s.push_back(g.scenarios / g.cpu_s);
      ms_per_request.push_back(g.cpu_s * 1e3 / g.requests);
      raw_ms_per_request.push_back(g.raw_cpu_s * 1e3 / g.requests);
    }
    s.scenarios_per_cpu_s = median(per_cpu_s);
    s.cpu_ms_per_op = median(ms_per_request);
    s.raw_cpu_ms_per_op = median(raw_ms_per_request);
    s.probe_s = probe_s;
    s.scenarios_per_s = window_scenarios_per_s;
    s.requests_per_s = window_requests_per_s;
    s.latency_s = merged.price_latency;
    s.steal_share = steal_share;
    return s;
  }
};

Loop run_loop(const Args& args, const Setup& su, int phase, double seconds,
              Tracer* tracer, Outcome& out) {
  std::vector<ClientLog> logs(static_cast<std::size_t>(su.clients));
  Loop loop;
  std::vector<double> probes;
  const HostCpu host = HostCpu::now();
  const auto start = Clock::now();
  for (std::uint64_t segment = 0; seconds_since(start) < seconds; ++segment) {
    const double until_s =
        std::min(seconds, seconds_since(start) + kSegmentS);
    Loop::Segment g;
    for (const ClientLog& log : logs) {
      g.requests -= static_cast<double>(log.requests);
      g.scenarios -= static_cast<double>(log.scenarios);
    }
    const double cpu0 = process_cpu_s();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < su.clients; ++c) {
        const std::uint64_t stream =
            Rng(args.seed)
                .fork(100 + 16 * (4096 * static_cast<std::uint64_t>(phase) +
                                  segment) +
                      static_cast<std::uint64_t>(c))
                .next_u64();
        threads.emplace_back(client_loop, std::cref(su), stream, start,
                             until_s, tracer,
                             std::ref(logs[static_cast<std::size_t>(c)]));
      }
      for (std::thread& t : threads) t.join();
    }
    g.raw_cpu_s = process_cpu_s() - cpu0;
    probes.push_back(host_probe_s());
    for (const ClientLog& log : logs) {
      g.requests += static_cast<double>(log.requests);
      g.scenarios += static_cast<double>(log.scenarios);
    }
    loop.segments.push_back(g);
  }
  const std::vector<double> speed = smoothed_probes(probes);
  for (std::size_t i = 0; i < loop.segments.size(); ++i) {
    Loop::Segment& g = loop.segments[i];
    g.cpu_s = at_reference_speed(g.raw_cpu_s, speed[i]);
  }
  loop.probe_s = median(probes);
  loop.steal_share = HostCpu::now().steal_share_since(host);
  ClientLog& m = loop.merged;
  for (ClientLog& log : logs) {
    m.price_latency.insert(m.price_latency.end(), log.price_latency.begin(),
                           log.price_latency.end());
    m.price_item.insert(m.price_item.end(), log.price_item.begin(),
                        log.price_item.end());
    m.search_latency.insert(m.search_latency.end(), log.search_latency.begin(),
                            log.search_latency.end());
    m.requests += log.requests;
    m.scenarios += log.scenarios;
    m.response_bytes += log.response_bytes;
    for (auto& s : log.searches) m.searches.push_back(std::move(s));
    m.completions.insert(m.completions.end(), log.completions.begin(),
                         log.completions.end());
    out.attempted += log.checks.attempted;
    for (const std::string& e : log.checks.errors) out.fail(e);
    // Failures beyond the recorded messages still count.
    out.failed += log.checks.failed - log.checks.errors.size();
  }
  const auto windows = static_cast<std::size_t>(seconds);
  std::vector<double> requests(windows, 0.0);
  std::vector<double> scenarios(windows, 0.0);
  for (const auto& [t, n] : m.completions) {
    const auto w = static_cast<std::size_t>(t);
    if (w >= windows) continue;
    requests[w] += 1.0;
    scenarios[w] += static_cast<double>(n);
  }
  loop.window_requests_per_s = median(requests);
  loop.window_scenarios_per_s = median(scenarios);
  return loop;
}

/// Replays served searches on the set-up Session; reports must match.
void replay_searches(Setup& su, const Loop& loop, Outcome& out) {
  for (const auto& [doc, served] : loop.merged.searches) {
    ++out.attempted;
    guarded(out, "search replay", [&] {
      bpvec::serve::SearchRequest request;
      request.manifest = bpvec::cli::parse_manifest(doc, kManifestDir);
      request.deterministic_report = true;
      if (su.reference->search(request).report.dump(1) != served) {
        out.fail("served search report differs from the Session's");
      }
    });
  }
  out.checks.set("searches_replayed",
                 static_cast<std::int64_t>(loop.merged.searches.size()));
}

class TimedStrategy final : public bpvec::dse::SearchStrategy {
 public:
  TimedStrategy(std::unique_ptr<bpvec::dse::SearchStrategy> inner,
                Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  const char* name() const override { return inner_->name(); }
  std::vector<bpvec::dse::Candidate> propose(std::size_t max_batch) override {
    Span span(tracer_, "dse.propose");
    return inner_->propose(max_batch);
  }
  void observe(const std::vector<bpvec::dse::Evaluation>& batch) override {
    inner_->observe(batch);
  }

 private:
  std::unique_ptr<bpvec::dse::SearchStrategy> inner_;
  Tracer* tracer_;
};

class TimedEvaluator final : public bpvec::dse::Evaluator {
 public:
  TimedEvaluator(bpvec::dse::Evaluator& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  std::vector<bpvec::dse::Evaluation> evaluate(
      const std::vector<bpvec::dse::Candidate>& batch) override {
    Span span(tracer_, "dse.evaluate");
    evaluations += batch.size();
    return inner_.evaluate(batch);
  }
  std::size_t evaluations = 0;

 private:
  bpvec::dse::Evaluator& inner_;
  Tracer* tracer_;
};

/// Fresh searches through dse::run_search on the served engine, built
/// the way Session::search builds them, with timing wrappers.
void probe_dse(const Args& args, Setup& su, Tracer* tracer, Outcome& out) {
  Rng rng = Rng(args.seed).fork(9);
  std::size_t evaluations = 0;
  bpvec::engine::SimEngine& engine = su.server->server().session().engine();
  for (int i = 0; i < kDseProbes; ++i) {
    const bpvec::cli::Manifest manifest = bpvec::cli::parse_manifest(
        fresh_search_manifest(rng.next_u64()), kManifestDir);
    const bpvec::cli::SearchSpec& spec = *manifest.search;
    const bpvec::dse::ParamSpace space = bpvec::cli::search_space(spec);
    bpvec::dse::StrategyOptions options;
    options.budget = spec.budget;
    options.restarts = spec.restarts;
    options.population = spec.population;
    options.seed = spec.seed;
    options.objectives = spec.objectives;
    TimedStrategy strategy(
        bpvec::dse::make_strategy(spec.strategy, space, options), tracer);
    bpvec::dse::ScenarioEvaluator scenario_evaluator(
        engine, space, bpvec::cli::search_base_scenario(spec), spec.objectives,
        spec.mix, spec.constraints, spec.workload);
    TimedEvaluator evaluator(scenario_evaluator, tracer);
    bpvec::dse::SearchOptions search_options;
    search_options.budget = spec.budget;
    ++out.attempted;
    Span span(tracer, "dse.run_search");
    const bpvec::dse::SearchOutcome outcome = bpvec::dse::run_search(
        strategy, evaluator, spec.objectives, search_options);
    if (outcome.frontier.size() == 0) out.fail("search with an empty frontier");
    evaluations += evaluator.evaluations;
  }
  out.metrics.set("dse.propose_us", span_mean(*tracer, "dse.propose", 1e6),
                  "us");
  out.metrics.set("dse.evaluate_ms",
                  tracer->total_seconds("dse.evaluate") / kDseProbes * 1e3,
                  "ms");
  out.metrics.set("dse.evaluations_per_request",
                  static_cast<double>(evaluations) / kDseProbes, "count");
}

/// Server::handle_line, Session::price and the calls Session::price makes,
/// per pool manifest, on the warm served session.
void probe_serve_layers(Setup& su, const Loop& traced, Tracer* tracer,
                        Outcome& out) {
  bpvec::serve::Server& server = su.server->server();
  bpvec::serve::Session& session = server.session();
  std::vector<double> wire_ms;
  double report_bytes = 0.0;
  for (std::size_t i = 0; i < su.pool.size(); ++i) {
    const PoolItem& item = su.pool[i];
    ++out.attempted;
    guarded(out, "serve probe", [&] {
      const auto t0 = Clock::now();
      Value response;
      {
        Span span(tracer, "serve.handle");
        response = server.handle_line(item.line);
      }
      const double handle_s = seconds_since(t0);
      const Value* report = response.find("report");
      if (report == nullptr || report->dump(1) != item.expected) {
        out.fail("handle_line report differs: " + item.name);
      }
      bpvec::serve::PriceRequest request;
      request.manifest = item.manifest;
      request.deterministic_report = true;
      {
        Span span(tracer, "serve.session");
        (void)session.price(request);
      }
      std::vector<bpvec::engine::Scenario> scenarios;
      {
        Span span(tracer, "cli.expand");
        scenarios = bpvec::cli::expand(item.manifest);
      }
      std::vector<bpvec::sim::RunResult> results;
      {
        Span span(tracer, "engine.run_batch");
        results = session.engine().run_batch(scenarios);
      }
      {
        Span span(tracer, "cli.report");
        report_bytes += static_cast<double>(
            bpvec::cli::build_report(item.name, scenarios, results, {}, false)
                .dump(1)
                .size());
      }
      probe_generators(item.manifest, tracer);
      // Wire time: the client's median latency for this manifest minus
      // the in-process handling time of the same request.
      std::vector<double> latency;
      for (std::size_t k = 0; k < traced.merged.price_item.size(); ++k) {
        if (traced.merged.price_item[k] == i) {
          latency.push_back(traced.merged.price_latency[k]);
        }
      }
      if (!latency.empty()) {
        wire_ms.push_back((median(latency) - handle_s) * 1e3);
      }
    });
  }
  Metrics& m = out.metrics;
  m.set("serve.handle_ms", span_mean(*tracer, "serve.handle", 1e3), "ms");
  m.set("serve.session_ms", span_mean(*tracer, "serve.session", 1e3), "ms");
  m.set("serve.wire_ms", median(wire_ms), "ms");
  m.set("cli.expand_ms", span_mean(*tracer, "cli.expand", 1e3), "ms");
  m.set("cli.report_ms", span_mean(*tracer, "cli.report", 1e3), "ms");
  m.set("cli.report_bytes",
        report_bytes / static_cast<double>(su.pool.size()), "B");
  m.set("engine.run_batch_ms", span_mean(*tracer, "engine.run_batch", 1e3),
        "ms");
  m.set("workload.generate_us", span_mean(*tracer, "workload.generate", 1e6),
        "us");
}

}  // namespace

Outcome run_serve_warm(const Args& args) {
  Outcome out;
  Setup su;
  su.socket_path =
      args.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  SetupTimes setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    su.server.reset();  // the previous repetition's server stops untimed
    su.reference.reset();
    setup.measure([&] { make_setup(args, su, out); });
  }
  std::size_t scenarios = 0;
  for (const PoolItem& item : su.pool) scenarios += item.scenarios;
  out.provenance.set("scenario_count", static_cast<std::int64_t>(scenarios));
  out.provenance.set("pool_manifests",
                     static_cast<std::int64_t>(su.pool.size()));
  out.provenance.set("unique_layers",
                     static_cast<std::int64_t>(su.unique_layers));
  out.provenance.set("engine_threads", su.engine_threads);
  out.provenance.set("client_connections", su.clients);
  out.checks.set("served_reports_vs_session", true);
  out.checks.set("ci_gate_vs_golden", kGolden);

  bpvec::serve::Session& session = su.server->server().session();
  const Loop plain = run_loop(args, su, 0, args.trace ? args.seconds / 2
                                                      : args.seconds,
                              nullptr, out);
  replay_searches(su, plain, out);
  const Tail search_tail = tail(plain.merged.search_latency);
  if (!args.trace) {
    Metrics& m = out.metrics;
    setup.report(out);
    loop_metrics(plain.summary(), false, out);
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    Tracer tracer;
    const EngineStats before = session.fleet_stats();
    const Loop traced = run_loop(args, su, 1, args.seconds / 2, &tracer, out);
    const EngineStats d = session.fleet_stats() - before;
    replay_searches(su, traced, out);
    const double requests =
        std::max<double>(1.0, static_cast<double>(traced.merged.requests));
    Metrics& m = out.metrics;
    m.set("engine.construct_ms", su.engine_construct_s * 1e3, "ms");
    m.set("engine.hash_ms", d.hash_s / requests * 1e3, "ms");
    m.set("engine.plan_ms", d.plan_s / requests * 1e3, "ms");
    m.set("engine.price_ms", d.price_s / requests * 1e3, "ms");
    m.set("engine.assemble_ms", d.assemble_s / requests * 1e3, "ms");
    m.set("engine.scenario_hit_rate",
          hit_rate(d.cache_hits, d.scenarios_submitted), "ratio");
    m.set("engine.layer_hit_rate",
          hit_rate(d.layer_cache_hits, d.layer_cache_hits + d.layers_priced),
          "ratio");
    m.set("engine.delta_share", hit_rate(d.delta_scenarios, d.simulations_run),
          "ratio");
    m.set("engine.layers_priced",
          static_cast<double>(d.layers_priced) / requests, "count");
    m.set("serve.response_bytes",
          traced.merged.price_latency.empty()
              ? 0.0
              : traced.merged.response_bytes /
                    static_cast<double>(traced.merged.price_latency.size()),
          "B");
    m.set("serve.search_p50_ms", median(plain.merged.search_latency) * 1e3,
          "ms");
    m.set("serve.search_tail_ms", search_tail.value * 1e3, "ms");
    probe_serve_layers(su, traced, &tracer, out);
    probe_dse(args, su, &tracer, out);
    loop_metrics(plain.summary(), true, out);
    finish_trace(args, tracer, traced.merged.requests,
                 plain.summary().scenarios_per_cpu_s,
                 traced.summary().scenarios_per_cpu_s, out);
  }
  Value search_doc = Value::object();
  search_doc.set("percentile", search_tail.percentile);
  search_doc.set("samples", static_cast<std::int64_t>(search_tail.samples));
  search_doc.set("beyond", static_cast<std::int64_t>(search_tail.beyond));
  out.provenance.set("search_tail", std::move(search_doc));
  out.provenance.set("requests",
                     static_cast<std::int64_t>(plain.merged.requests));

  const std::string server_error = su.server->error();
  if (!server_error.empty()) out.fail("server: " + server_error);
  su.server.reset();
  return out;
}

}  // namespace perfbench
