#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "decision/compiler.h"
#include "decision/serialize.h"
#include "game/solver.h"
#include "layers.h"
#include "semantics/symbolic.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "stats.h"
#include "testing/mutants.h"
#include "trace.h"
#include "tsystem/rebuild.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using tigat::decision::DecisionSource;
using tigat::decision::DecisionTable;
using tigat::game::GameSolution;
using tigat::game::Move;
using tigat::semantics::ConcreteState;

namespace {

// Salts that split the workload seed into independent streams.
constexpr std::uint64_t kServeSalt = 0x5e7e5eedULL;
constexpr std::uint64_t kSynthSalt = 0x5ca1ab1eULL;
constexpr std::uint64_t kFaultSalt = 0xfa017ULL;

constexpr std::size_t kPipelineBatch = 64;
// Requests per latency chunk (p99 then has ten samples beyond it) and
// batches per pipelined throughput chunk.
constexpr std::size_t kLatencyChunk = 1000;
constexpr std::size_t kRateBatches = 16;
constexpr double kSessionS = 0.1;
constexpr std::int64_t kSafetyPassTicks = 100000;

// Keeps the direct decides observable to the optimiser.
volatile std::uint64_t g_sink = 0;

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    throw std::system_error(errno, std::generic_category(), "clock_gettime");
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time of the calling thread.  It stops while the hypervisor runs
// other guests on this virtual CPU, which wall time does not.
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

// The CPU-time clock of another thread of this process, named by its
// kernel thread id: the id pthread_getcpuclockid gives for a pthread
// (Linux per-thread CPUCLOCK_SCHED).
clockid_t thread_cpu_clock(int tid) {
  return (~static_cast<clockid_t>(tid) << 3) | 6;
}

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

tigat::lang::LoadedModel load_lep(const Config& cfg) {
  trace::Span span("lang.load_model");
  tigat::lang::CompileOptions options;
  options.params.emplace_back("N", cfg.lep_n);
  return tigat::lang::load_model(cfg.models_dir + "/lep.tg", options);
}

tigat::lang::LoadedModel load_safety(const Config& cfg) {
  trace::Span span("lang.load_model");
  return tigat::lang::load_model(cfg.models_dir + "/smart_light_safety.tg");
}

std::shared_ptr<const GameSolution> timed_solve(
    const tigat::tsystem::System& system, const tigat::tsystem::TestPurpose& p,
    const Config& cfg) {
  trace::Span span("game.solve");
  tigat::game::SolverOptions options;
  options.threads = cfg.solver_threads;
  return tigat::game::GameSolver(system, p, options).solve();
}

DecisionTable timed_compile(const GameSolution& solution) {
  trace::Span span("decision.compile");
  return tigat::decision::compile(solution);
}

void timed_save(const DecisionTable& table, const std::string& path) {
  trace::Span span("decision.save");
  tigat::decision::save(table, path);
}

DecisionTable timed_map(const std::string& path) {
  trace::Span span("decision.map");
  return DecisionTable::map(path);
}

void add_counts(SolveCounts& counts, const GameSolution& solution) {
  counts.rounds += solution.stats().rounds;
  counts.winning_zones += solution.stats().winning_zones;
}

// Concrete states spread uniformly over every key of the graph, with
// clocks up to two units past the largest model constant.
std::vector<ConcreteState> sample_states(
    const tigat::semantics::SymbolicGraph& g, std::size_t count,
    tigat::util::Rng& rng) {
  std::int64_t max_const = 1;
  for (const auto c : g.max_constants()) {
    max_const = std::max<std::int64_t>(max_const, c);
  }
  const std::int64_t hi = (max_const + 2) * kScale;
  std::vector<ConcreteState> out;
  out.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    const auto k = static_cast<std::uint32_t>(
        rng.range(0, static_cast<std::int64_t>(g.key_count()) - 1));
    ConcreteState s;
    s.locs = g.key(k).locs;
    s.data = g.key(k).data;
    s.clocks.assign(g.system().clock_count(), 0);
    for (std::size_t c = 1; c < s.clocks.size(); ++c) {
      s.clocks[c] = rng.range(0, hi);
    }
    out.push_back(std::move(s));
  }
  return out;
}

// Replaces the safety IUT by the first mutant the strategy catches, so
// campaign (b) produces real FAIL verdicts.
void install_killing_mutant(Artifacts& a) {
  const auto& base = *a.safety.plant;
  for (const auto& m : tigat::testing::enumerate_mutants(base)) {
    auto plant = std::make_unique<tigat::tsystem::System>(
        tigat::testing::apply_mutant(base, m));
    auto imp = std::make_unique<tigat::testing::SimulatedImplementation>(
        *plant, kScale);
    tigat::testing::CampaignOptions opts;
    opts.executor.purpose = a.safety.purpose;
    opts.executor.pass_ticks = kSafetyPassTicks;
    const auto report = tigat::testing::campaign_run(
        *a.safety.table, a.safety.model->system, *imp, kScale, opts);
    if (report.fails > 0) {
      a.safety.imp = std::move(imp);
      a.safety.plant = std::move(plant);
      return;
    }
  }
  throw std::runtime_error("no safety mutant is caught by the strategy");
}

// Runs `body(t)` on `n` threads released together; returns the wall
// time from release to the last thread's end.  Rethrows the first
// exception a thread raised.
double run_threads(unsigned n, const std::function<void(unsigned)>& body) {
  std::atomic<bool> go{false};
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const double wall = static_cast<double>(now_ns() - start) * 1e-9;
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return wall;
}

std::size_t expected_index(const Config& cfg, std::size_t i, std::size_t n) {
  return cfg.break_check == "serve" ? (i + 1) % n : i;
}

// One socket shared by an open-loop sender and reader thread (a
// serve::Client is single-threaded), speaking proto-v1 frames.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail("socket");
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd_);
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::system_error(err, std::generic_category(), "connect");
    }
    // The hello frame.
    while (!tigat::serve::next_frame(buffer_, at_)) receive();
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(at_));
    at_ = 0;
  }
  ~RawConnection() { ::close(fd_); }
  // Unblocks the reader when the sender gives up.
  void shutdown() const { ::shutdown(fd_, SHUT_RDWR); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  void send_all(const std::vector<std::uint8_t>& bytes) const {
    std::size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + at, bytes.size() - at,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("send");
      }
      at += static_cast<std::size_t>(n);
    }
  }

  // Reader side: calls on_frame for each reply until it returns false.
  void read_frames(
      const std::function<bool(std::span<const std::uint8_t>)>& on_frame) {
    for (;;) {
      while (const auto frame = tigat::serve::next_frame(buffer_, at_)) {
        if (!on_frame(*frame)) return;
      }
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(at_));
      at_ = 0;
      trace::Span span("serve.socket.recv");
      receive();
    }
  }

 private:
  [[noreturn]] static void fail(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
  }
  // Polls instead of blocking, so the load generator's own wake-up
  // latency stays out of the measured latency.
  void receive() {
    std::uint8_t chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer_.insert(buffer_.end(), chunk, chunk + n);
        return;
      }
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        fail("recv");
      }
    }
  }

  int fd_ = -1;
  std::vector<std::uint8_t> buffer_;
  std::size_t at_ = 0;
};

// The next CPU in a rotation over the CPUs the process started with,
// shared by every phase that pins threads; -1 when there is only one.
int next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
    return out;
  }();
  static std::size_t next = 0;
  return cpus.size() < 2 ? -1 : cpus[next++ % cpus.size()];
}

cpu_set_t one_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return set;
}

// Moves the calling thread to the next CPU on every step() and restores
// its affinity when destroyed.  Campaign calls run on one thread, so
// rotating them spreads a core that the host slows for a whole run over
// all of them.
class CpuRotation {
 public:
  CpuRotation() {
    saved_ok_ =
        pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) == 0;
  }
  ~CpuRotation() {
    if (saved_ok_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step() {
    const int cpu = saved_ok_ ? next_cpu() : -1;
    if (cpu < 0) return;
    const cpu_set_t one = one_cpu(cpu);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

 private:
  cpu_set_t saved_;
  bool saved_ok_ = false;
};

// Thread ids of this process.
std::vector<int> task_ids() {
  std::vector<int> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    out.push_back(std::stoi(e.path().filename().string()));
  }
  return out;
}

// Puts the server's workers on the next CPU for the lifetime of a
// closed-loop session whose client threads call pin_caller().  Client
// and server then hand the socket back and forth on one core: a round
// trip costs the program's syscalls and decides, not the wake-up of an
// idle virtual CPU, which on a shared host stalls for up to
// milliseconds at random.
class SharedCpu {
 public:
  explicit SharedCpu(const std::vector<int>& server_tids)
      : tids_(server_tids), cpu_(next_cpu()) {
    if (cpu_ < 0 || sched_getaffinity(0, sizeof(all_), &all_) != 0) {
      cpu_ = -1;
      return;
    }
    one_ = one_cpu(cpu_);
    for (const int tid : tids_) sched_setaffinity(tid, sizeof(one_), &one_);
  }
  ~SharedCpu() {
    if (cpu_ < 0) return;
    for (const int tid : tids_) sched_setaffinity(tid, sizeof(all_), &all_);
  }
  SharedCpu(const SharedCpu&) = delete;
  SharedCpu& operator=(const SharedCpu&) = delete;

  // Pins the calling thread to the session's CPU; it stays there until
  // it ends, so call it only from threads the session starts.
  void pin_caller() const {
    if (cpu_ >= 0) pthread_setaffinity_np(pthread_self(), sizeof(one_), &one_);
  }

 private:
  std::vector<int> tids_;
  int cpu_;
  cpu_set_t all_;
  cpu_set_t one_;
};

// Time spent on a serve session's CPU: the CPU time of the calling
// client thread plus that of the server's workers, which SharedCpu
// keeps together on one CPU.  A round trip there always runs one of
// them, so on an idle core this is the wall time; what it leaves out is
// time the core gave to anything else (another guest of the host,
// another task), which makes wall times of the same code swing between
// runs on a shared host.
class OnCoreClock {
 public:
  explicit OnCoreClock(const std::vector<int>& server_tids) {
    for (const int tid : server_tids) clocks_.push_back(thread_cpu_clock(tid));
  }
  // Reading before and after a request: the client's own clock is read
  // last before it and first after it, so the reads of the server's
  // clocks stay out of the interval.
  [[nodiscard]] std::int64_t before() const {
    const std::int64_t server = server_ns();
    return server + thread_cpu_ns();
  }
  [[nodiscard]] std::int64_t after() const {
    const std::int64_t client = thread_cpu_ns();
    return client + server_ns();
  }

 private:
  [[nodiscard]] std::int64_t server_ns() const {
    std::int64_t sum = 0;
    for (const clockid_t c : clocks_) sum += clock_ns(c);
    return sum;
  }

  std::vector<clockid_t> clocks_;
};

CampaignStats run_campaign(Served& s,
                           const tigat::testing::CampaignOptions& opts,
                           std::string& reference, const char* phase,
                           double seconds, Tally& tally) {
  trace::Span root(phase);
  TimedImplementation timed_imp(*s.imp);
  const TimedSource timed_source(*s.table);
  const bool traced = trace::enabled();
  tigat::testing::Implementation& imp =
      traced ? static_cast<tigat::testing::Implementation&>(timed_imp)
             : *s.imp;
  const DecisionSource& source =
      traced ? static_cast<const DecisionSource&>(timed_source) : *s.table;
  CampaignStats st;
  CpuRotation rotation;
  const std::int64_t end = now_ns() + to_ns(seconds);
  do {
    rotation.step();
    const std::int64_t t0 = thread_cpu_ns();
    tigat::testing::CampaignReport report;
    {
      trace::Span span("testing.campaign");
      report = tigat::testing::campaign_run(source, s.model->system, imp,
                                            kScale, opts);
    }
    const double busy = static_cast<double>(thread_cpu_ns() - t0) * 1e-9;
    trace::Span check("check.campaign");
    std::string json = report.to_json();
    if (reference.empty()) reference = json;
    const bool identical = json == reference;
    std::uint64_t steps = 0;
    for (const auto& o : report.outcomes) {
      steps += o.report.steps;
      st.ledgers += o.ledgers.size();
    }
    st.steps += steps;
    st.attempts += report.attempts;
    st.retries += report.retries_used;
    st.runs_per_s.push_back(static_cast<double>(report.runs) / busy);
    st.steps_per_s.push_back(static_cast<double>(steps) / busy);
    tally.add(report.runs, identical ? report.fails : report.runs);
  } while (now_ns() < end);
  st.decide_calls = timed_source.calls();
  return st;
}

}  // namespace

void CampaignStats::merge(const CampaignStats& o) {
  steps += o.steps;
  attempts += o.attempts;
  retries += o.retries;
  ledgers += o.ledgers;
  decide_calls += o.decide_calls;
  runs_per_s.insert(runs_per_s.end(), o.runs_per_s.begin(), o.runs_per_s.end());
  steps_per_s.insert(steps_per_s.end(), o.steps_per_s.begin(),
                     o.steps_per_s.end());
}

void ServeStats::merge(const ServeStats& o) {
  latency_ns.insert(latency_ns.end(), o.latency_ns.begin(),
                    o.latency_ns.end());
  on_core_ns.insert(on_core_ns.end(), o.on_core_ns.begin(),
                    o.on_core_ns.end());
  late_ns.insert(late_ns.end(), o.late_ns.begin(), o.late_ns.end());
  replies += o.replies;
  wall_s += o.wall_s;
  chunk_p50_us.insert(chunk_p50_us.end(), o.chunk_p50_us.begin(),
                      o.chunk_p50_us.end());
  chunk_p99_us.insert(chunk_p99_us.end(), o.chunk_p99_us.begin(),
                      o.chunk_p99_us.end());
  chunk_per_s.insert(chunk_per_s.end(), o.chunk_per_s.begin(),
                     o.chunk_per_s.end());
}

Artifacts::~Artifacts() {
  if (server) {
    trace::Span span("serve.server_stop");
    server->stop();
  }
}

std::unique_ptr<Artifacts> setup(const Config& cfg, int index, Tally& tally) {
  trace::Span root("setup");
  const std::int64_t t0 = now_ns();
  auto a = std::make_unique<Artifacts>();
  const std::string stem = cfg.work_dir + "/setup" + std::to_string(index);

  std::shared_ptr<const GameSolution> lep_solution;
  {
    Served& lep = a->lep;
    lep.model = std::make_unique<tigat::lang::LoadedModel>(load_lep(cfg));
    lep.purpose = lep.model->purposes.at(0);
    lep_solution = timed_solve(lep.model->system, *lep.purpose, cfg);
    tally.add(1, lep_solution->winning_from_initial() ? 0 : 1);
    add_counts(a->solves, *lep_solution);
    timed_save(timed_compile(*lep_solution), stem + "-lep.tgs");

    Served& safety = a->safety;
    safety.model = std::make_unique<tigat::lang::LoadedModel>(load_safety(cfg));
    safety.purpose = safety.model->purposes.at(0);
    const auto solution =
        timed_solve(safety.model->system, *safety.purpose, cfg);
    tally.add(1, solution->winning_from_initial() ? 0 : 1);
    add_counts(a->solves, *solution);
    timed_save(timed_compile(*solution), stem + "-safety.tgs");
  }
  a->synth_s = static_cast<double>(now_ns() - t0) * 1e-9;

  tigat::util::Rng rng(cfg.seed ^ kServeSalt);
  a->states = sample_states(lep_solution->graph(), cfg.serve_states, rng);
  lep_solution.reset();

  a->lep.table.emplace(timed_map(stem + "-lep.tgs"));
  a->safety.table.emplace(timed_map(stem + "-safety.tgs"));
  a->expected.reserve(a->states.size());
  for (const ConcreteState& s : a->states) {
    a->expected.push_back(a->lep.table->decide(s, kScale));
    a->frames.emplace_back();
    tigat::serve::append_frame(a->frames.back(),
                               tigat::serve::encode_decide_request(s, kScale));
  }

  for (Served* s : {&a->lep, &a->safety}) {
    s->plant = std::make_unique<tigat::tsystem::System>(
        tigat::tsystem::extract_process(s->model->system, "IUT"));
    s->imp = std::make_unique<tigat::testing::SimulatedImplementation>(
        *s->plant, kScale);
  }
  if (cfg.break_check == "campaign") install_killing_mutant(*a);
  if (cfg.break_check == "campaign-json") a->reach_json = "corrupted";

  a->socket_path = stem + ".sock";
  {
    trace::Span span("serve.server_start");
    a->server = std::make_unique<tigat::serve::Server>(
        *a->lep.table,
        tigat::serve::ServerConfig{.socket_path = a->socket_path,
                                   .threads = cfg.server_threads});
    const std::vector<int> before = task_ids();
    a->server->start();
    for (const int tid : task_ids()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) {
        a->server_tids.push_back(tid);
      }
    }
  }

  // Warm-up: one short pass of every timed phase (their checks count).
  {
    trace::Span span("warmup");
    const double w = cfg.quick ? 0.01 : 0.03;
    (void)reach_campaign(*a, cfg, 0.0, tally);
    (void)safety_campaign(*a, cfg, 0.0, tally);
    (void)serve_closed(*a, cfg, w, tally);
    (void)serve_pipelined(*a, cfg, w, tally);
    (void)serve_open(*a, cfg, 20000.0, w, tally);
  }
  a->setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return a;
}

SynthPass synth_pass(const Config& cfg, std::uint64_t pass, Tally& tally) {
  SynthPass out;
  std::optional<tigat::lang::LoadedModel> model;  // outlives the solutions
  std::vector<std::shared_ptr<const GameSolution>> solutions;
  std::vector<DecisionTable> tables;
  const std::int64_t t0 = now_ns();
  {
    trace::Span root("pass.synth");
    model.emplace(load_lep(cfg));
    for (std::size_t p = 0; p < model->purposes.size(); ++p) {
      solutions.push_back(timed_solve(model->system, model->purposes[p], cfg));
      tables.push_back(timed_compile(*solutions.back()));
      timed_save(tables.back(),
                 cfg.work_dir + "/pass-p" + std::to_string(p) + ".tgs");
    }
  }
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;

  trace::Span check("check.synth");
  tigat::util::Rng rng(cfg.seed ^ kSynthSalt ^ (pass << 32));
  const std::size_t samples = cfg.quick ? 16 : 64;
  for (std::size_t p = 0; p < solutions.size(); ++p) {
    const GameSolution& solution = *solutions[p];
    add_counts(out.solves, solution);
    bool ok = solution.winning_from_initial();
    const tigat::game::Strategy strategy(solutions[p]);
    const auto states = sample_states(solution.graph(), samples, rng);
    for (std::size_t i = 0; i < states.size(); ++i) {
      const std::size_t j =
          cfg.break_check == "synth" ? (i + 1) % states.size() : i;
      ok = ok && tables[p].decide(states[i], kScale) ==
                     strategy.decide(states[j], kScale);
    }
    tally.add(1, ok ? 0 : 1);
  }
  return out;
}

CampaignStats reach_campaign(Artifacts& a, const Config& cfg, double seconds,
                             Tally& tally) {
  tigat::testing::CampaignOptions opts;
  opts.runs = cfg.quick ? 100 : 250;
  opts.retries = 2;
  opts.backoff_base_ms = 0;
  opts.fault_spec = "drop=0.05,delay=0..8";
  opts.fault_seed = cfg.seed ^ kFaultSalt;
  opts.record_ledgers = true;
  opts.executor.purpose = a.lep.purpose;
  return run_campaign(a.lep, opts, a.reach_json, "phase.campaign_reach",
                      seconds, tally);
}

CampaignStats safety_campaign(Artifacts& a, const Config& cfg, double seconds,
                              Tally& tally) {
  tigat::testing::CampaignOptions opts;
  opts.runs = cfg.quick ? 2 : 8;
  opts.backoff_base_ms = 0;
  opts.executor.purpose = a.safety.purpose;
  opts.executor.pass_ticks = kSafetyPassTicks;
  return run_campaign(a.safety, opts, a.safety_json, "phase.campaign_safety",
                      seconds, tally);
}

namespace {

// Splits a serve phase into sessions of about kSessionS, each with
// fresh connections and client threads.  How the scheduler interleaves
// a client and a server worker on one CPU settles, per session, into
// one of a few patterns whose round trips differ by a third; many short
// sessions let every run see them in the same proportion.
ServeStats in_sessions(double seconds,
                       const std::function<ServeStats(double)>& session) {
  const auto count =
      std::max<long>(1, std::lround(seconds / kSessionS));
  ServeStats out;
  for (long k = 0; k < count; ++k) {
    out.merge(session(seconds / static_cast<double>(count)));
  }
  return out;
}

// One client thread on the session's CPU; its round trips are timed
// on the wall clock and on the on-core clock, the on-core ones make the
// metrics.
ServeStats closed_session(Artifacts& a, const Config& cfg, double seconds,
                          Tally& tally) {
  auto client = tigat::serve::Client::connect(a.socket_path);
  std::uint64_t bad = 0;
  const std::size_t states = a.states.size();
  const std::int64_t end = now_ns() + to_ns(seconds);
  ServeStats st;
  const SharedCpu cpu(a.server_tids);
  st.wall_s = run_threads(1, [&](unsigned) {
    cpu.pin_caller();
    const OnCoreClock core(a.server_tids);
    trace::Span root("phase.serve_closed");
    const auto expect = static_cast<std::size_t>(seconds * 100000.0) + 16;
    st.latency_ns.reserve(expect);
    st.on_core_ns.reserve(expect);
    for (std::size_t i = 0; now_ns() < end; i = (i + 1) % states) {
      const std::int64_t c0 = core.before();
      const std::int64_t t0 = now_ns();
      Move move;
      {
        trace::Span span("serve.client.decide", trace::kFreshId);
        move = client.decide(a.states[i], kScale);
      }
      const std::int64_t t1 = now_ns();
      st.on_core_ns.push_back(core.after() - c0);
      st.latency_ns.push_back(t1 - t0);
      if (!(move == a.expected[expected_index(cfg, i, states)])) ++bad;
    }
  });
  chunk_percentiles(st.on_core_ns, 0, st.on_core_ns.size(), kLatencyChunk,
                    st.chunk_p50_us, st.chunk_p99_us);
  st.replies = st.latency_ns.size();
  tally.add(st.replies, bad);
  return st;
}

// One client thread on the session's CPU sending batches; throughput is
// taken per chunk of kRateBatches batches over on-core time.
ServeStats pipelined_session(Artifacts& a, const Config& cfg,
                             double seconds, Tally& tally) {
  auto client = tigat::serve::Client::connect(a.socket_path);
  std::uint64_t bad = 0;
  std::vector<std::int64_t> batch_core_ns;
  const std::size_t states = a.states.size();
  const std::int64_t end = now_ns() + to_ns(seconds);
  ServeStats st;
  const SharedCpu cpu(a.server_tids);
  st.wall_s = run_threads(1, [&](unsigned) {
    cpu.pin_caller();
    const OnCoreClock core(a.server_tids);
    trace::Span root("phase.serve_pipelined");
    std::size_t i = 0;
    do {
      const std::int64_t c0 = core.before();
      trace::Span span("serve.client.batch", trace::kFreshId);
      for (std::size_t b = 0; b < kPipelineBatch; ++b) {
        client.send_decide(a.states[(i + b) % states], kScale);
      }
      client.flush();
      for (std::size_t b = 0; b < kPipelineBatch; ++b) {
        const Move move = client.read_move();
        const std::size_t k = expected_index(cfg, (i + b) % states, states);
        if (!(move == a.expected[k])) ++bad;
      }
      batch_core_ns.push_back(core.after() - c0);
      i = (i + kPipelineBatch) % states;
    } while (now_ns() < end);
  });
  st.replies = batch_core_ns.size() * kPipelineBatch;
  tally.add(st.replies, bad);
  std::size_t chunk = kRateBatches;
  if (batch_core_ns.size() < chunk) chunk = batch_core_ns.size();
  for (std::size_t at = 0; at + chunk <= batch_core_ns.size(); at += chunk) {
    std::int64_t ns = 0;
    for (std::size_t b = at; b < at + chunk; ++b) ns += batch_core_ns[b];
    st.chunk_per_s.push_back(static_cast<double>(chunk * kPipelineBatch) *
                             1e9 / static_cast<double>(ns));
  }
  return st;
}

}  // namespace

ServeStats serve_closed(Artifacts& a, const Config& cfg, double seconds,
                        Tally& tally) {
  return in_sessions(seconds, [&](double s) {
    return closed_session(a, cfg, s, tally);
  });
}

ServeStats serve_pipelined(Artifacts& a, const Config& cfg, double seconds,
                           Tally& tally) {
  return in_sessions(seconds, [&](double s) {
    return pipelined_session(a, cfg, s, tally);
  });
}

ServeStats serve_open(Artifacts& a, const Config& cfg, double rate,
                      double seconds, Tally& tally) {
  RawConnection conn(a.socket_path);
  const std::size_t states = a.states.size();
  const auto interval = static_cast<std::int64_t>(1e9 / rate);
  const std::size_t capacity = static_cast<std::size_t>(rate * seconds) + 1;
  std::vector<std::int64_t> sent_at(capacity, 0);
  std::vector<std::int64_t> received_at(capacity, 0);
  std::size_t total = 0;
  std::uint64_t bad = 0;
  std::int64_t start = 0;
  ServeStats st;
  st.wall_s = run_threads(2, [&](unsigned t) {
    if (t == 0) {  // sender
      struct ShutdownOnThrow {
        const RawConnection& conn;
        ~ShutdownOnThrow() {
          if (std::uncaught_exceptions() > 0) conn.shutdown();
        }
      } guard{conn};
      trace::Span root("phase.serve_open_send");
      start = now_ns() + 100000;
      std::vector<std::uint8_t> out;
      std::size_t i = 0;
      while (i < capacity) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(i) * interval;
        if (now_ns() < due) {
          trace::Span span("loadgen.wait");
          for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
            if (due - now > 300000) {
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(due - now - 200000));
            } else {
              std::this_thread::yield();
            }
          }
        }
        const std::int64_t now = now_ns();
        // Everything already due goes out in one write.
        out.clear();
        for (; i < capacity &&
               start + static_cast<std::int64_t>(i) * interval <= now;
             ++i) {
          const auto& frame = a.frames[i % states];
          out.insert(out.end(), frame.begin(), frame.end());
          sent_at[i] = now;
        }
        trace::Span span("serve.socket.send");
        conn.send_all(out);
      }
      total = i;
      // A ping after the last request: its reply ends the reader.
      std::vector<std::uint8_t> ping;
      const std::uint8_t op = tigat::serve::kOpPing;
      tigat::serve::append_frame(ping, std::span<const std::uint8_t>(&op, 1));
      conn.send_all(ping);
    } else {  // reader
      trace::Span root("phase.serve_open_recv");
      std::size_t j = 0;
      conn.read_frames([&](std::span<const std::uint8_t> frame) {
        if (frame.size() == 1) return false;  // the ping reply
        if (j >= capacity) throw std::runtime_error("reply without request");
        received_at[j] = now_ns();
        trace::Span span("serve.decode_reply");
        const Move move = tigat::serve::decode_move_reply(frame);
        const std::size_t k = expected_index(cfg, j % states, states);
        if (!(move == a.expected[k])) ++bad;
        ++j;
        return true;
      });
    }
  });
  st.replies = total;
  st.latency_ns.reserve(total);
  st.late_ns.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::int64_t due = start + static_cast<std::int64_t>(i) * interval;
    st.latency_ns.push_back(received_at[i] - due);
    st.late_ns.push_back(sent_at[i] - due);
  }
  std::vector<double> unused_p50;
  chunk_percentiles(st.latency_ns, 0, total, kLatencyChunk, unused_p50,
                    st.chunk_p99_us);
  tally.add(total, bad);
  return st;
}

double direct_decide_ns(const Artifacts& a, double seconds) {
  trace::Span root("phase.direct_decide");
  constexpr std::size_t kChunk = 1024;
  std::vector<double> per_call;
  const std::size_t states = a.states.size();
  std::size_t i = 0;
  std::uint64_t sink = 0;
  const std::int64_t end = now_ns() + to_ns(seconds);
  do {
    const std::int64_t t0 = now_ns();
    for (std::size_t c = 0; c < kChunk; ++c) {
      const Move m = a.lep.table->decide(a.states[i], kScale);
      sink += static_cast<std::uint64_t>(m.kind) + m.edge.value_or(0);
      i = (i + 1) % states;
    }
    per_call.push_back(static_cast<double>(now_ns() - t0) / kChunk);
  } while (now_ns() < end);
  g_sink = sink;
  return median(per_call);
}

namespace {
ExploreStats explore(const tigat::tsystem::System& system, const Config& cfg) {
  tigat::util::ThreadPool pool(cfg.solver_threads);
  tigat::semantics::SymbolicGraph graph(system, {});
  const std::int64_t t0 = now_ns();
  {
    trace::Span span("semantics.explore");
    graph.explore(&pool);
  }
  ExploreStats st;
  st.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  const auto stats = graph.stats();
  st.keys = stats.keys;
  st.edges = stats.edges;
  st.reach_zones = stats.zones;
  return st;
}
}  // namespace

ExploreStats explore_lep(const Config& cfg) {
  const auto model = load_lep(cfg);
  return explore(model.system, cfg);
}

ExploreStats explore_safety(const Config& cfg) {
  const auto model = load_safety(cfg);
  return explore(model.system, cfg);
}

}  // namespace perfbench
