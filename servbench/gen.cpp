// servbench_gen: load generator and verdict checker of the serving
// benchmark (see README.md next to this file).
//
//   servbench_gen --workload wire_count|inproc_deadline|inproc_churn
//                 --seed N --seconds S --trace 0|1
//                 [--daemon PATH] [--trace-out PATH]
//
// One generator thread drives the system under test: the rtw_svcd daemon
// over 4 loopback connections (wire_count), or an in-process
// SessionManager with the daemon's defaults (2 shards, ring 4096).  A run
// is: set-up (repeated, median reported), a closed-loop capacity phase
// (median of per-second goodput windows) and an open-loop phase at the
// workload's fixed nominal rate (verdict latency from the Close's due
// time, CPU per symbol, failures).  With --trace 1 the run also replays
// its inputs through each public entry point on one thread and reports the
// per-layer metrics instead.  Every verdict is checked against the plan's
// built-in expectation and, bit for bit, against the direct-acceptor
// replay.  The last stdout line is the result object.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "plans.hpp"
#include "rtw/core/lane.hpp"
#include "rtw/svc/server.hpp"
#include "stats.hpp"

extern char** environ;

namespace servbench {
namespace {

using rtw::svc::AdmitResult;
using rtw::svc::Admit;
using rtw::svc::SessionId;
using rtw::svc::SessionManager;
using rtw::svc::WireEvent;

// ------------------------------------------------------------ clocks

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
std::uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }

// ------------------------------------------------------------ workloads

enum class Workload { Wire, Deadline, Churn };

struct Args {
  Workload workload = Workload::Wire;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon = "rtw_svcd";
  std::string trace_out;
};

/// Fixed per-workload load shape.  Nominal rates sit well under the
/// capacity measured on a 4-thread host so the open loop never queues up;
/// they are constants, not derived from the run, so CPU per symbol and
/// latency compare like with like across commits.
struct Shape {
  std::size_t pool = 0;            ///< distinct plans, reused round-robin
  std::size_t clients = 0;         ///< closed loop: concurrent sessions
  double nominal_sessions_per_s = 0;
  /// Open loop: concurrent sessions the nominal schedule aims for by
  /// spacing each session's events (0 = whole session at once).
  std::size_t nominal_concurrency = 0;
  std::size_t warmup_sessions = 0;  ///< in-process set-up warm-up
};

Shape shape_of(Workload w) {
  switch (w) {
    case Workload::Wire: return {2048, 0, 10000, 0, 0};
    case Workload::Deadline: return {32, 1000, 6000, 1000, 256};
    case Workload::Churn: return {4096, 256, 12000, 0, 2000};
  }
  return {};
}

constexpr unsigned kShards = 2;          // rtw_svcd default
constexpr std::size_t kRing = 4096;      // rtw_svcd default
constexpr std::size_t kConnections = 4;  // wire_count client connections
/// Per-connection cap on the bytes the traced run records for replay
/// (whole sessions only).
constexpr std::size_t kRecordCap = 12u << 20;
/// Flow control, in both loops.  In process: no event is issued while the
/// target shard's ring holds this many slots (a quarter of the ring, far
/// below the Normal-priority watermark), so nothing sheds.  On the wire:
/// symbols a connection may have awaiting verdicts.
constexpr std::size_t kDepthCap = 1024;
constexpr std::size_t kWireWindow = 2048;
constexpr int kSetupReps = 7;
/// Capacity and latency are judged per one-second window: short enough
/// that a host stall spoils few of them, long enough that each latency
/// window holds several thousand sessions at the nominal rates.
constexpr std::uint64_t kWindowNs = 1000000000ull;
constexpr std::uint64_t kSettleNs = 20000000000ull;  ///< verdict wait cap
/// The wire generator sleeps in ppoll until this long before the next due
/// time, then spins, so it is on time without holding a core.
constexpr std::uint64_t kSpinNs = 50000;

rtw::svc::ServerConfig sut_config() {
  rtw::svc::ServerConfig c;
  c.shard.count = kShards;
  c.ingress.ring_capacity = kRing;
  return c;
}

// ------------------------------------------------------------ tracking

/// One session in flight.  Indexed by id & (kSlots - 1); ids are issued
/// sequentially and in-flight counts stay far below kSlots.
struct Track {
  SessionId id = 0;  ///< 0 = free
  std::uint32_t plan = 0;
  std::uint32_t next_event = 0;
  std::uint64_t close_due_ns = 0;  ///< open loop: when the Close was due
  bool refused = false;
  bool shed = false;
  bool closed = false;
};
constexpr std::size_t kSlots = 1u << 18;

struct Arrival {
  SessionId id = 0;
  std::uint64_t at_ns = 0;
  Observed obs;
};

/// What one phase measured.
struct PhaseResult {
  Tally tally;
  std::vector<Completion> goodput;     ///< correct sessions' symbols
  std::vector<Completion> latency_us;  ///< open loop: (close due, us)
  std::vector<double> late_us;         ///< generator lateness per event
  std::vector<double> call_ns;         ///< timed calls into the SUT
  std::uint64_t begin_ns = 0, end_ns = 0;
  /// Open loop: first Close due time at steady state (latency windows
  /// start here, past the ramp while sessions fill up).
  std::uint64_t latency_begin_ns = 0;
  std::uint64_t symbols = 0;           ///< symbols of attempted sessions
  std::uint64_t sut_cpu_ns = 0;
  std::uint64_t gen_busy_ns = 0;       ///< generator time not spent waiting
  std::uint64_t wall_ns = 0;
  std::uint64_t mismatches = 0;        ///< replay or expectation mismatches
  std::vector<double> depth;           ///< sampled ring depths
  std::uint64_t issued = 0;            ///< closed loop: events issued
  std::uint64_t held = 0;              ///< ... and held back by flow control
};

/// Shared bookkeeping of both drivers: plans, the in-flight table, the
/// outcome of every finished session, and optional spans.
class Book {
public:
  Book(const std::vector<Plan>& plans, const std::vector<Observed>& replay)
      : plans_(plans), replay_(replay), slots_(kSlots) {}

  const Plan& plan(const Track& t) const { return plans_[t.plan]; }
  /// The plan the next start() will use.
  const Plan& peek_plan() const { return plans_[next_plan_ % plans_.size()]; }

  /// Starts the next session; nullptr when its table slot is still held
  /// by a session that never settled (an open loop far past capacity),
  /// in which case the new session is booked as Missing unsent.
  Track* start(std::uint64_t close_due_ns, PhaseResult& out) {
    const SessionId id = next_id_++;
    Track& t = slots_[id & (kSlots - 1)];
    const auto plan = static_cast<std::uint32_t>(next_plan_++ % plans_.size());
    if (t.id != 0) {
      out.tally.record(Outcome::Missing);
      out.symbols += plans_[plan].symbols();
      return nullptr;
    }
    t = Track{};
    t.id = id;
    t.plan = plan;
    t.close_due_ns = close_due_ns;
    ++inflight_;
    return &t;
  }
  Track* find(SessionId id) {
    Track& t = slots_[id & (kSlots - 1)];
    return t.id == id ? &t : nullptr;
  }

  /// Settles a session: classifies it, and for a correct one books its
  /// symbols as goodput at `at_ns`.
  void finish(Track& t, const Observed* obs, std::uint64_t at_ns,
              PhaseResult& out) {
    const Plan& p = plan(t);
    bool matched = false;
    if (obs) {
      matched = obs->verdict == p.expected && *obs == replay_[t.plan];
      if (!matched && !t.shed && !t.refused) {
        ++out.mismatches;
        if (out.mismatches <= 3)
          std::cerr << "servbench: session " << t.id << " plan " << t.plan
                    << " verdict " << static_cast<int>(obs->verdict)
                    << " expected " << static_cast<int>(p.expected)
                    << " exact " << obs->exact << "/" << replay_[t.plan].exact
                    << " fed " << obs->fed << "/" << replay_[t.plan].fed
                    << " stale " << obs->stale << "/" << replay_[t.plan].stale
                    << "\n";
      }
    }
    const Outcome o = classify(t.refused, t.shed, obs != nullptr, matched);
    out.tally.record(o);
    out.symbols += p.symbols();
    if (o == Outcome::Ok) {
      out.goodput.push_back({at_ns, static_cast<double>(p.symbols())});
      if (t.close_due_ns)
        out.latency_us.push_back(
            {t.close_due_ns,
             static_cast<double>(at_ns > t.close_due_ns ? at_ns - t.close_due_ns
                                                         : 0) /
                 1e3});
    }
    t.id = 0;
    --inflight_;
  }

  /// Every session still in flight is Missing.
  void expire(PhaseResult& out) {
    for (auto& t : slots_)
      if (t.id) finish(t, nullptr, 0, out);
  }

  std::size_t inflight() const { return inflight_; }

  // Spans (traced runs only).
  Spans* spans = nullptr;
  void span_begin(std::uint32_t name, SessionId s = 0) {
    if (spans) spans->begin(name, now_ns(), s);
  }
  void span_end() {
    if (spans) spans->end(now_ns());
  }

private:
  const std::vector<Plan>& plans_;
  const std::vector<Observed>& replay_;
  std::vector<Track> slots_;
  SessionId next_id_ = 1;
  std::uint64_t next_plan_ = 0;
  std::size_t inflight_ = 0;
};

/// Poisson arrival schedule over [begin, end) at `rate` per second.
class Arrivals {
public:
  Arrivals(std::uint64_t seed, double rate, std::uint64_t begin,
           std::uint64_t end)
      : rng_(seed), rate_(rate), end_(end), next_(begin) {
    advance();
  }
  bool more() const { return next_ < end_; }
  std::uint64_t due() const { return next_; }
  void advance() {
    next_ += static_cast<std::uint64_t>(rng_.exponential(rate_) * 1e9);
  }

private:
  rtw::sim::Xoshiro256ss rng_;
  double rate_;
  std::uint64_t end_;
  std::uint64_t next_;
};

// ------------------------------------------------------------ in process

/// The in-process system under test: a SessionManager with the daemon's
/// defaults whose report sink timestamps each verdict as it settles.
class InProc {
public:
  explicit InProc(Workload w)
      : workload_(w), manager_(sut_config().shard, sut_config().ingress) {
    manager_.set_report_sink([this](const rtw::svc::SessionReport& r) {
      Arrival a{r.id, now_ns(),
                {r.verdict, r.result.exact, r.fed, r.stale_dropped}};
      std::lock_guard lock(mutex_);
      arrivals_.push_back(a);
      return true;
    });
  }
  SessionManager& manager() { return manager_; }

  /// Issues event `e` of the session; `call_ns` receives the duration of
  /// the call into the SUT alone.
  AdmitResult issue(const Plan& p, std::size_t e, SessionId id,
                    std::uint64_t& call_ns) {
    const bool lane = workload_ == Workload::Deadline;
    std::uint64_t t0 = 0;
    AdmitResult r;
    if (e == 0) {
      if (lane) {
        t0 = now_ns();
        manager_.open(id, make_acceptor(p));
      } else {
        WireEvent ev;
        ev.kind = p.kind == Kind::Query ? WireEvent::Kind::SubmitQuery
                                        : WireEvent::Kind::Open;
        ev.session = id;
        ev.profile = p.open;
        t0 = now_ns();
        r = manager_.apply(ev, factory_);
      }
    } else if (e + 1 == p.events()) {
      if (lane) {
        t0 = now_ns();
        manager_.close(id);
      } else {
        WireEvent ev;
        ev.kind = WireEvent::Kind::Close;
        ev.session = id;
        t0 = now_ns();
        r = manager_.apply(ev, factory_);
      }
    } else if (lane) {
      auto run = p.slice(e - 1);
      t0 = now_ns();
      r = manager_.feed_batch(id, std::move(run));
    } else {
      WireEvent ev;
      ev.kind = WireEvent::Kind::Symbols;
      ev.session = id;
      ev.symbols = p.slice(e - 1);
      t0 = now_ns();
      r = manager_.apply(ev, factory_);
    }
    call_ns = now_ns() - t0;
    return r;
  }

  /// Ring occupancy of the shard `id` routes to.
  std::size_t depth_for(SessionId id) const {
    return manager_.ring_depth(manager_.shard_of(id));
  }

  void take_arrivals(std::vector<Arrival>& out) {
    out.clear();
    std::lock_guard lock(mutex_);
    out.swap(arrivals_);
  }

private:
  Workload workload_;
  rtw::svc::AcceptorFactory factory_ = churn_factory();
  // Declared before manager_ so the report sink's targets outlive the
  // shard workers, which the manager joins on destruction.
  std::mutex mutex_;
  std::vector<Arrival> arrivals_;
  SessionManager manager_;
};

/// Span names of the calls into the SUT: open, symbols, close.
struct CallSpans {
  std::uint32_t open = 0, symbols = 0, close = 0;
};

/// Issues one event for a tracked session and books its admission.
void issue_event(InProc& sut, Book& book, Track& t, PhaseResult& out,
                 const CallSpans& spans, bool time_calls) {
  const Plan& p = book.plan(t);
  const std::size_t e = t.next_event++;
  std::uint64_t call = 0;
  book.span_begin(e == 0                  ? spans.open
                  : e + 1 == p.events()   ? spans.close
                                          : spans.symbols,
                  t.id);
  const AdmitResult r = sut.issue(p, e, t.id, call);
  book.span_end();
  if (time_calls) out.call_ns.push_back(static_cast<double>(call));
  if (r.admit != Admit::Accepted) {
    if (e == 0) t.refused = true;
    else t.shed = true;
  }
  if (e + 1 == p.events()) t.closed = true;
}

/// Drains arrived verdicts into the book; returns how many arrived.
std::size_t absorb(InProc& sut, Book& book, std::vector<Arrival>& scratch,
                   PhaseResult& out) {
  sut.take_arrivals(scratch);
  for (const auto& a : scratch)
    if (Track* t = book.find(a.id)) book.finish(*t, &a.obs, a.at_ns, out);
  return scratch.size();
}

/// Refused sessions never report; settle them once their Close is out.
void settle_refused(Book& book, Track& t, PhaseResult& out) {
  if (t.refused && t.closed) book.finish(t, nullptr, now_ns(), out);
}

void wait_settled(InProc& sut, Book& book, std::vector<Arrival>& scratch,
                  PhaseResult& out) {
  const std::uint64_t give_up = now_ns() + kSettleNs;
  while (book.inflight() > 0 && now_ns() < give_up) {
    absorb(sut, book, scratch, out);
    if (book.inflight() > 0) std::this_thread::yield();
  }
  book.expire(out);
}

/// Closed loop: `clients` callers, each running one session at a time and
/// opening the next once the verdict is back.  Events of all live
/// sessions interleave round-robin.  Stops starting sessions after
/// `duration_ns` or `max_sessions`, whichever comes first.
PhaseResult inproc_closed(InProc& sut, Book& book, std::size_t clients,
                          std::uint64_t duration_ns, std::size_t max_sessions,
                          const CallSpans& spans) {
  PhaseResult out;
  std::vector<SessionId> client(clients, 0);
  std::vector<Arrival> scratch;
  out.begin_ns = now_ns();
  const std::uint64_t end = out.begin_ns + duration_ns;
  bool stopping = false;
  std::size_t started = 0;
  while (true) {
    if (now_ns() >= end) stopping = true;
    bool live = false;
    for (auto& id : client) {
      if (id == 0) {
        if (stopping || started == max_sessions) continue;
        Track* fresh = book.start(0, out);
        ++started;
        if (!fresh) continue;
        id = fresh->id;
      }
      Track* t = book.find(id);
      if (!t) {  // settled already
        id = 0;
        continue;
      }
      live = true;
      if (t->closed) continue;
      if (sut.depth_for(t->id) >= kDepthCap) {
        ++out.held;
        continue;
      }
      ++out.issued;
      issue_event(sut, book, *t, out, spans, false);
      settle_refused(book, *t, out);
    }
    absorb(sut, book, scratch, out);
    if ((stopping || started == max_sessions) && !live) break;
    if (stopping && now_ns() > end + kSettleNs) break;
  }
  out.end_ns = end;
  wait_settled(sut, book, scratch, out);
  return out;
}

/// Open loop at the nominal rate: sessions arrive on a seeded Poisson
/// schedule and each event is issued when due, however the SUT is doing.
PhaseResult inproc_open(InProc& sut, Book& book, const Shape& shape,
                        std::uint64_t seed, std::uint64_t duration_ns,
                        const CallSpans& spans, bool sample_depth,
                        double mean_events) {
  PhaseResult out;
  std::vector<Arrival> scratch;
  sut.manager().drain();
  const auto stats0 = sut.manager().stats();
  const std::uint64_t p0 = process_cpu_ns(), g0 = thread_cpu_ns();
  out.begin_ns = now_ns();
  const std::uint64_t end = out.begin_ns + duration_ns;
  // Event spacing that keeps `nominal_concurrency` sessions open.
  const double lifetime_s =
      shape.nominal_concurrency
          ? static_cast<double>(shape.nominal_concurrency) /
                shape.nominal_sessions_per_s
          : 0;
  const std::uint64_t gap_ns =
      mean_events > 1
          ? static_cast<std::uint64_t>(lifetime_s * 1e9 / (mean_events - 1))
          : 0;
  Arrivals arrivals(seed, shape.nominal_sessions_per_s, out.begin_ns, end);
  out.latency_begin_ns = out.begin_ns + static_cast<std::uint64_t>(lifetime_s * 1e9);
  using Due = std::pair<std::uint64_t, SessionId>;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;
  std::uint64_t events = 0;
  while (arrivals.more() || !due.empty()) {
    const std::uint64_t now = now_ns();
    if (arrivals.more() && arrivals.due() <= now) {
      if (Track* t = book.start(0, out)) {
        t->close_due_ns = arrivals.due() + gap_ns * (book.plan(*t).events() - 1);
        due.push({arrivals.due(), t->id});
      }
      arrivals.advance();
      out.gen_busy_ns += now_ns() - now;
      continue;
    }
    // A due event waits while its shard's ring is at the flow-control
    // cap: the client honours backpressure instead of overrunning the
    // ring, and the wait shows as lateness and in the verdict latency
    // (timed from the due time).  It only engages when the host stalls
    // the shard workers for tens of milliseconds.
    if (!due.empty() && due.top().first <= now &&
        sut.depth_for(due.top().second) < kDepthCap) {
      const auto [when, id] = due.top();
      due.pop();
      Track* t = book.find(id);
      out.late_us.push_back(static_cast<double>(now - when) / 1e3);
      issue_event(sut, book, *t, out, spans, true);
      if (!t->closed) due.push({when + gap_ns, id});
      else settle_refused(book, *t, out);
      if (sample_depth && (++events & 63) == 0)
        for (unsigned s = 0; s < sut.manager().shards(); ++s)
          out.depth.push_back(static_cast<double>(sut.manager().ring_depth(s)));
      out.gen_busy_ns += now_ns() - now;
      continue;
    }
    if (absorb(sut, book, scratch, out) > 0) out.gen_busy_ns += now_ns() - now;
  }
  out.end_ns = end;
  wait_settled(sut, book, scratch, out);
  sut.manager().drain();
  const std::uint64_t p1 = process_cpu_ns(), g1 = thread_cpu_ns();
  out.wall_ns = now_ns() - out.begin_ns;
  double calls = 0;
  for (const double c : out.call_ns) calls += c;
  out.sut_cpu_ns = (p1 - p0) - (g1 - g0) + static_cast<std::uint64_t>(calls);
  out.symbols = sut.manager().stats().ingested - stats0.ingested;
  return out;
}

// ------------------------------------------------------------ the daemon

/// rtw_svcd as a child process on a kernel-assigned port.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string& path) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    // The runtime cap is a safety net: the daemon exits on its own even
    // if this process dies without signalling it.
    std::vector<std::string> args = {path, "--port", "0", "--max-runtime-s",
                                     "170"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    out_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      close(out_);
      out_ = -1;
      return false;
    }
    // "rtw_svcd listening on 127.0.0.1:PORT"
    std::string line;
    while (line.find('\n') == std::string::npos) {
      pollfd pfd{out_, POLLIN, 0};
      if (poll(&pfd, 1, 10000) <= 0) return false;
      char buf[256];
      const ssize_t n = read(out_, buf, sizeof buf);
      if (n <= 0) return false;
      line.append(buf, static_cast<std::size_t>(n));
    }
    rest_ = line.substr(line.find('\n') + 1);
    const auto colon = line.rfind(':', line.find('\n'));
    if (colon == std::string::npos) return false;
    port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
    return port_ != 0;
  }

  /// SIGTERM (graceful drain), then collects the exit stats row.
  std::string stop() {
    if (pid_ <= 0) return {};
    kill(pid_, SIGTERM);
    char buf[4096];
    ssize_t n;
    while ((n = read(out_, buf, sizeof buf)) > 0)
      rest_.append(buf, static_cast<std::size_t>(n));
    int status = 0;
    waitpid(pid_, &status, 0);
    close(out_);
    pid_ = -1;
    return rest_;
  }

  /// The daemon's CPU time (utime + stime), in ns.
  std::uint64_t cpu_ns() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), {});
    const auto paren = stat.rfind(')');
    if (paren == std::string::npos) return 0;
    std::istringstream fields(stat.substr(paren + 2));
    std::string f;
    std::uint64_t utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::stoull(f);
      if (i == 15) stime = std::stoull(f);
    }
    const double tick_ns = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
    return static_cast<std::uint64_t>(static_cast<double>(utime + stime) *
                                      tick_ns);
  }

  std::uint16_t port() const { return port_; }

private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
  std::string rest_;
};

/// One client connection of the wire workload.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t off = 0;
  rtw::svc::Decoder decoder;
  std::size_t outstanding = 0;  ///< symbols awaiting verdicts
  std::string recorded;         ///< traced nominal phase: bytes sent
  bool record = false;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

struct WireSut {
  Daemon daemon;
  std::vector<std::unique_ptr<Conn>> conns;
};

/// Spawns the daemon, connects every client and completes the Hello.
bool wire_setup(const std::string& daemon_path, WireSut& sut) {
  if (!sut.daemon.start(daemon_path)) return false;
  for (std::size_t i = 0; i < kConnections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(sut.daemon.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      return false;
    int one = 1;
    setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::string hello = rtw::svc::encode_hello();
    if (send(c->fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(hello.size()))
      return false;
    bool acked = false;
    char buf[256];
    while (!acked) {
      const ssize_t n = recv(c->fd, buf, sizeof buf, 0);
      if (n <= 0) return false;
      c->decoder.push({buf, static_cast<std::size_t>(n)});
      WireEvent ev;
      while (c->decoder.next(ev))
        if (ev.kind == WireEvent::Kind::HelloAck) acked = true;
    }
    fcntl(c->fd, F_SETFL, fcntl(c->fd, F_GETFL) | O_NONBLOCK);
    sut.conns.push_back(std::move(c));
  }
  return true;
}

/// Span names of the wire client.
struct WireSpans {
  std::uint32_t encode = 0, write = 0, read = 0, decode = 0;
};

class WireDriver {
public:
  WireDriver(WireSut& sut, Book& book, WireSpans spans)
      : sut_(sut), book_(book), spans_(spans) {}

  void enqueue(Conn& c, Track& t) {
    const Plan& p = book_.plan(t);
    book_.span_begin(spans_.encode, t.id);
    const std::size_t before = c.out.size();
    append_frames(p, t.id, c.out);
    if (c.record && c.recorded.size() < kRecordCap)
      c.recorded.append(c.out, before, std::string::npos);
    book_.span_end();
    c.outstanding += p.symbols();
    t.closed = true;
  }

  void flush(Conn& c) {
    if (c.off == c.out.size()) return;
    book_.span_begin(spans_.write);
    while (c.off < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + c.off, c.out.size() - c.off,
                             MSG_NOSIGNAL);
      if (n <= 0) break;
      c.off += static_cast<std::size_t>(n);
    }
    book_.span_end();
    if (c.off == c.out.size()) {
      c.out.clear();
      c.off = 0;
    } else if (c.off > (1u << 20)) {
      c.out.erase(0, c.off);
      c.off = 0;
    }
  }

  /// Reads whatever verdicts are ready; true if any bytes arrived.
  bool pump(Conn& c, PhaseResult& out) {
    char buf[65536];
    bool any = false;
    while (true) {
      book_.span_begin(spans_.read);
      const ssize_t n = recv(c.fd, buf, sizeof buf, 0);
      book_.span_end();
      if (n <= 0) break;
      any = true;
      const std::uint64_t at = now_ns();
      book_.span_begin(spans_.decode);
      c.decoder.push({buf, static_cast<std::size_t>(n)});
      WireEvent ev;
      while (c.decoder.next(ev)) {
        Track* t = book_.find(ev.session);
        if (!t) continue;
        if (ev.kind == WireEvent::Kind::Shed) {
          if (ev.admit.reason == rtw::svc::ShedReason::None) t->refused = true;
          else t->shed = true;
          if (t->refused) {
            c.outstanding -= book_.plan(*t).symbols();
            book_.finish(*t, nullptr, at, out);
          }
        } else if (ev.kind == WireEvent::Kind::Verdict) {
          const Observed obs{ev.verdict, ev.exact, ev.fed, ev.stale};
          c.outstanding -= book_.plan(*t).symbols();
          book_.finish(*t, &obs, at, out);
        }
      }
      book_.span_end();
    }
    return any;
  }

  /// Sleeps until a connection is readable (or writable with output
  /// pending) or `timeout_ns` passes, instead of spinning on recv: the
  /// generator must not take CPU the daemon's threads could use.
  void wait_io(std::uint64_t timeout_ns) {
    pollfd fds[kConnections];
    nfds_t n = 0;
    for (auto& c : sut_.conns)
      fds[n++] = {c->fd,
                  static_cast<short>(POLLIN | (c->off < c->out.size() ? POLLOUT : 0)),
                  0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1000000000ull),
                      static_cast<long>(timeout_ns % 1000000000ull)};
    ppoll(fds, n, &ts, nullptr);
  }

  /// Flushes and reads every connection; true if any verdict bytes came.
  bool service(PhaseResult& out) {
    bool any = false;
    for (auto& c : sut_.conns) {
      flush(*c);
      any = pump(*c, out) || any;
    }
    return any;
  }

  void wait_settled(PhaseResult& out) {
    const std::uint64_t give_up = now_ns() + kSettleNs;
    while (book_.inflight() > 0 && now_ns() < give_up)
      if (!service(out)) wait_io(1000000);
    book_.expire(out);
    for (auto& c : sut_.conns) c->outstanding = 0;
  }

  PhaseResult closed(std::uint64_t duration_ns) {
    PhaseResult out;
    out.begin_ns = now_ns();
    const std::uint64_t end = out.begin_ns + duration_ns;
    while (now_ns() < end) {
      bool sent = false;
      for (auto& c : sut_.conns) {
        while (true) {
          const Plan& next = book_.peek_plan();
          if (c->outstanding > 0 &&
              c->outstanding + next.symbols() > kWireWindow)
            break;
          Track* t = book_.start(0, out);
          if (t) enqueue(*c, *t);
          sent = true;
        }
      }
      if (!service(out) && !sent) wait_io(1000000);
    }
    out.end_ns = end;
    wait_settled(out);
    return out;
  }

  PhaseResult open(const Shape& shape, std::uint64_t seed,
                   std::uint64_t duration_ns) {
    PhaseResult out;
    const std::uint64_t d0 = sut_.daemon.cpu_ns();
    out.begin_ns = now_ns();
    const std::uint64_t end = out.begin_ns + duration_ns;
    Arrivals arrivals(seed, shape.nominal_sessions_per_s, out.begin_ns, end);
    out.latency_begin_ns = out.begin_ns;
    std::size_t rr = 0;
    std::uint64_t symbols = 0;
    while (arrivals.more()) {
      const std::uint64_t now = now_ns();
      // As in process, a due session waits while its connection already
      // has a full window of symbols awaiting verdicts.
      Conn& c = *sut_.conns[rr % sut_.conns.size()];
      if (arrivals.due() <= now &&
          (c.outstanding == 0 ||
           c.outstanding + book_.peek_plan().symbols() <= kWireWindow)) {
        ++rr;
        out.late_us.push_back(static_cast<double>(now - arrivals.due()) / 1e3);
        if (Track* t = book_.start(arrivals.due(), out)) {
          symbols += book_.plan(*t).symbols();
          enqueue(c, *t);
          flush(c);
        }
        arrivals.advance();
        out.gen_busy_ns += now_ns() - now;
        continue;
      }
      if (service(out)) {
        out.gen_busy_ns += now_ns() - now;
      } else if (arrivals.due() > now + kSpinNs) {
        wait_io(arrivals.due() - now - kSpinNs);
      }
    }
    out.end_ns = end;
    wait_settled(out);
    out.wall_ns = now_ns() - out.begin_ns;
    out.sut_cpu_ns = sut_.daemon.cpu_ns() - d0;
    out.symbols = symbols;
    return out;
  }

private:
  WireSut& sut_;
  Book& book_;
  WireSpans spans_;
};

// ------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Key/value pairs of the envelope line, values already JSON-encoded.
using Envelope = std::vector<std::pair<std::string, std::string>>;

struct Run {
  std::vector<Metric> metrics;
  Envelope envelope;
  Tally tally;
  std::uint64_t mismatches = 0;
  bool valid = true;  ///< false: a check other than a verdict failed
  std::string why;
  Spans spans{200000};

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& k, double v) { envelope.push_back({k, num(v)}); }
  void note(const std::string& k, const std::string& v) {
    envelope.push_back({k, quote(v)});
  }
  void invalid(const std::string& reason) {
    valid = false;
    why += (why.empty() ? "" : "; ") + reason;
  }
  void absorb(const PhaseResult& p) {
    tally.add(p.tally);
    mismatches += p.mismatches;
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// p50 and p99 of a sample, noting the sample count; a p99 without ten
/// samples beyond it invalidates the run.
std::pair<double, double> p50_p99(Run& run, const std::string& what,
                                  const std::vector<double>& v) {
  run.note(what + ".samples", static_cast<double>(v.size()));
  if (!percentile_supported(v.size(), 0.99))
    run.invalid(what + ": too few samples for p99");
  return {percentile(v, 0.5), percentile(v, 0.99)};
}

/// Median of per-second goodput windows, skipping the first half second.
double capacity(Run& run, const PhaseResult& p, const std::string& what) {
  const auto rates =
      window_rates(p.goodput, p.begin_ns + kWindowNs / 2, p.end_ns, kWindowNs);
  run.note(what + ".windows", static_cast<double>(rates.size()));
  if (rates.size() < 3) run.invalid(what + ": fewer than 3 windows");
  return median(rates);
}

/// Thread CPU ns per symbol of the direct-acceptor replay over the plans
/// of `kind` (acceptor construction, and query compilation, excluded).
double direct_ns_per_symbol(const std::vector<Plan>& plans, Kind kind) {
  std::uint64_t ns = 0, symbols = 0;
  for (int rep = 0; rep < 3; ++rep)
    for (const auto& p : plans) {
      if (p.kind != kind) continue;
      rtw::svc::Session s(0, make_acceptor(p));
      const std::uint64_t t0 = thread_cpu_ns();
      for (std::size_t e = 0; e < p.cuts.size(); ++e) {
        const std::uint32_t b = e == 0 ? 0 : p.cuts[e - 1];
        s.feed_run(p.word.data() + b, p.cuts[e] - b);
      }
      s.finish(rtw::core::StreamEnd::EndOfWord);
      ns += thread_cpu_ns() - t0;
      symbols += p.symbols();
    }
  return ratio(static_cast<double>(ns), static_cast<double>(symbols));
}

/// Weighted direct-acceptor cost of a workload's plan mix.
double direct_mix_ns_per_symbol(const std::vector<Plan>& plans) {
  double total = 0, symbols = 0;
  for (const Kind k : {Kind::Count, Kind::DeadlineLane, Kind::DeadlineOnline,
                       Kind::Query}) {
    double n = 0;
    for (const auto& p : plans)
      if (p.kind == k) n += static_cast<double>(p.symbols());
    if (n > 0) total += n * direct_ns_per_symbol(plans, k);
    symbols += n;
  }
  return ratio(total, symbols);
}

/// Every per-layer metric, in report order, with its unit.  A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"svc.net.read_bytes_per_symbol", "B/sym"},
    {"svc.net.write_bytes_per_verdict", "B/verdict"},
    {"svc.net.read_pauses", "count"},
    {"svc.net.frame_errors", "count"},
    {"svc.net.self_ns_per_symbol", "ns"},
    {"svc.server.self_ns_per_frame", "ns"},
    {"svc.wire.decode_ns_per_frame", "ns"},
    {"svc.wire.frames_per_symbol", "frame/sym"},
    {"svc.admit.call_p50_ns", "ns"},
    {"svc.admit.call_p99_ns", "ns"},
    {"svc.admit.shed_frac_at_capacity", "frac"},
    {"svc.admit.shed_ring_full", "sym"},
    {"svc.admit.shed_session_bound", "sym"},
    {"svc.admit.shed_priority", "sym"},
    {"svc.ring.wait_p50_us", "us"},
    {"svc.ring.wait_p99_us", "us"},
    {"svc.ring.depth_mean", "slot"},
    {"svc.ring.depth_max", "slot"},
    {"svc.shard.symbols_per_slot", "sym/slot"},
    {"svc.shard.slots_per_epoch", "slot/epoch"},
    {"svc.shard.self_ns_per_symbol", "ns"},
    {"core.lane.symbol_share", "frac"},
    {"core.lane.symbols_per_wave", "sym/wave"},
    {"deadline.lane.step_ns_per_symbol", "ns"},
    {"core.online.feed_ns_per_symbol", "ns"},
    {"cer.compile_p50_us", "us"},
    {"cer.compile_p99_us", "us"},
    {"cer.feed_ns_per_symbol", "ns"},
    {"cer.query_rejected", "count"},
    {"gen.late_p99_us", "us"},
    {"gen.cpu_frac", "frac"},
    {"obs.trace_overhead_frac", "frac"},
    {"failed_frac", "frac"},
    {"verdict_p99_us", "us"},
};

void layer_defaults(Run& run) {
  for (const auto& [name, unit] : kLayerMetrics) run.metric(name, 0, unit);
}

void set_metric(Run& run, const std::string& name, double v) {
  for (auto& m : run.metrics)
    if (m.name == name) {
      m.value = v;
      return;
    }
  throw std::logic_error("undeclared per-layer metric " + name);
}

/// Per-layer metrics of the SessionManager path, from stats deltas.
void shard_layers(Run& run, const rtw::svc::ServiceStats& a,
                  const rtw::svc::ServiceStats& b, double worker_ns,
                  double direct_ns_per_sym) {
  const double ingested = static_cast<double>(b.ingested - a.ingested);
  const double batches = static_cast<double>(b.batches - a.batches);
  const double lane = static_cast<double>(b.lane_symbols - a.lane_symbols);
  set_metric(run, "svc.shard.symbols_per_slot", ratio(ingested, batches));
  set_metric(run, "svc.shard.slots_per_epoch",
             ratio(batches, static_cast<double>(b.epochs - a.epochs)));
  set_metric(run, "svc.shard.self_ns_per_symbol",
             ratio(worker_ns, ingested) - direct_ns_per_sym);
  set_metric(run, "core.lane.symbol_share", ratio(lane, ingested));
  set_metric(run, "core.lane.symbols_per_wave",
             ratio(lane, static_cast<double>(b.lane_waves - a.lane_waves)));
}

void ring_layers(Run& run, std::vector<std::uint64_t> waits,
                 const std::vector<double>& depth) {
  std::vector<double> us;
  for (const auto w : waits) us.push_back(static_cast<double>(w) / 1e3);
  const auto [p50, p99] = p50_p99(run, "svc.ring.wait_us", us);
  set_metric(run, "svc.ring.wait_p50_us", p50);
  set_metric(run, "svc.ring.wait_p99_us", p99);
  double sum = 0, mx = 0;
  for (const double d : depth) {
    sum += d;
    mx = std::max(mx, d);
  }
  run.note("svc.ring.depth.samples", static_cast<double>(depth.size()));
  set_metric(run, "svc.ring.depth_mean", ratio(sum, static_cast<double>(depth.size())));
  set_metric(run, "svc.ring.depth_max", mx);
}

void admit_layers(Run& run, const std::vector<double>& calls,
                  const rtw::svc::ServiceStats& a,
                  const rtw::svc::ServiceStats& b) {
  const auto [p50, p99] = p50_p99(run, "svc.admit.call_ns", calls);
  set_metric(run, "svc.admit.call_p50_ns", p50);
  set_metric(run, "svc.admit.call_p99_ns", p99);
  const double shed = static_cast<double>(b.shed - a.shed);
  set_metric(run, "svc.admit.shed_frac_at_capacity",
             ratio(shed, shed + static_cast<double>(b.ingested - a.ingested)));
  set_metric(run, "svc.admit.shed_ring_full",
             static_cast<double>(b.shed_ring_full - a.shed_ring_full));
  set_metric(run, "svc.admit.shed_session_bound",
             static_cast<double>(b.shed_session_bound - a.shed_session_bound));
  set_metric(run, "svc.admit.shed_priority",
             static_cast<double>(b.shed_priority - a.shed_priority));
}

/// Verdict latency p50 and p99 of the open-loop phase.  Latency is judged
/// per one-second window (keyed by the Close's due time).  p50 is the
/// median of the window medians.  p99 is the lower quartile of the window
/// p99s: on a shared host, millisecond stalls of the virtual CPUs land in
/// a varying share of the windows and would otherwise set the figure.
/// Even so, its run-to-run spread follows the host's steal, so p99 is a
/// recorded figure rather than a gated end-to-end metric.
std::pair<double, double> verdict_latency(Run& run, const PhaseResult& nom) {
  std::size_t least = 0;
  const double p50 = median(window_percentiles(
      nom.latency_us, nom.latency_begin_ns, nom.end_ns, kWindowNs, 0.5));
  const double p99 = percentile(
      window_percentiles(nom.latency_us, nom.latency_begin_ns, nom.end_ns,
                         kWindowNs, 0.99, &least),
      0.25);
  run.note("verdict_us.samples", static_cast<double>(nom.latency_us.size()));
  run.note("verdict_us.min_window_samples", static_cast<double>(least));
  if (!percentile_supported(least, 0.99))
    run.invalid("verdict latency: a window has too few samples for p99");
  return {p50, p99};
}

/// The end-to-end metrics of an untraced run.
void end_to_end(Run& run, const std::vector<double>& setups,
                const PhaseResult& cap, const PhaseResult& nom) {
  run.metric("setup_s", median(setups), "s");
  run.note("setup.samples", static_cast<double>(setups.size()));
  run.metric("capacity_symbols_per_s", capacity(run, cap, "capacity"), "sym/s");
  // Share of closed-loop issue attempts the ring-depth cap held back: near
  // 1 means the system, not the generator, bounded the capacity phase.
  run.note("capacity.held_frac",
           ratio(static_cast<double>(cap.held),
                 static_cast<double>(cap.held + cap.issued)));
  const auto [p50, p99] = verdict_latency(run, nom);
  run.metric("verdict_p50_us", p50, "us");
  // p99 is reported on every run but not gated: see verdict_latency().
  run.note("verdict_p99_us", p99);
  run.metric("cpu_ns_per_symbol",
             ratio(static_cast<double>(nom.sut_cpu_ns),
                   static_cast<double>(nom.symbols)),
             "ns");
}

/// Generator validity and nominal failures (reported on every run).
void generator_notes(Run& run, const PhaseResult& nom, bool as_metrics) {
  const double late = percentile(nom.late_us, 0.99);
  // Busy share: the generator spins between due times, so its raw CPU
  // share is always ~1; the time spent issuing and absorbing is what
  // says whether it kept up.
  const double cpu = ratio(static_cast<double>(nom.gen_busy_ns),
                           static_cast<double>(nom.wall_ns));
  run.note("gen.late_p99_us", late);
  run.note("gen.late.samples", static_cast<double>(nom.late_us.size()));
  run.note("gen.cpu_frac", cpu);
  run.note("nominal.attempted", static_cast<double>(nom.tally.attempted));
  run.note("nominal.failed", static_cast<double>(nom.tally.failed()));
  run.note("nominal.symbols", static_cast<double>(nom.symbols));
  if (as_metrics) {
    set_metric(run, "gen.late_p99_us", late);
    set_metric(run, "gen.cpu_frac", cpu);
    set_metric(run, "failed_frac", nom.tally.failed_frac());
    set_metric(run, "verdict_p99_us", verdict_latency(run, nom).second);
  }
}

std::uint64_t shape_seed(std::uint64_t seed, std::uint64_t salt) {
  rtw::sim::SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  return mix();
}

// ------------------------------------------------------------ run layout

/// How a run of S seconds is spent: a warm half second, the closed-loop
/// capacity phase (whole one-second windows) and the open-loop phase.
struct Phases {
  double warm_s = 0.5;
  double capacity_s = 0;  ///< excluding the warm half second
  double nominal_s = 0;
};

Phases phases_of(double seconds) {
  Phases p;
  p.capacity_s = std::max(3.0, std::floor(seconds * 0.4));
  p.nominal_s = std::max(2.0, seconds - p.warm_s - p.capacity_s);
  return p;
}

std::uint64_t ns_of(double s) { return static_cast<std::uint64_t>(s * 1e9); }

// ------------------------------------------------------------ in process

void run_inproc(const Args& args, const std::vector<Plan>& plans,
                const std::vector<Observed>& replay, Run& run) {
  const Shape shape = shape_of(args.workload);
  const Phases ph = phases_of(args.seconds);
  const CallSpans none;
  CallSpans spans;
  const bool deadline = args.workload == Workload::Deadline;
  spans.open = run.spans.intern(deadline ? "svc.admit.open" : "svc.admit.apply.open");
  spans.symbols =
      run.spans.intern(deadline ? "svc.admit.feed_batch" : "svc.admit.apply.symbols");
  spans.close = run.spans.intern(deadline ? "svc.admit.close" : "svc.admit.apply.close");

  // Set-up: manager construction plus a fixed warm-up, several times.
  std::vector<double> setups;
  std::unique_ptr<InProc> sut;
  std::unique_ptr<Book> book;
  for (int r = 0; r < kSetupReps; ++r) {
    book.reset();
    sut.reset();
    const std::uint64_t t0 = now_ns();
    sut = std::make_unique<InProc>(args.workload);
    book = std::make_unique<Book>(plans, replay);
    const auto warm = inproc_closed(*sut, *book, shape.clients, ns_of(60),
                                    shape.warmup_sessions, none);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    run.absorb(warm);
  }
  const auto stats0 = sut->manager().stats();

  double mean_events = 0;
  for (const auto& p : plans) mean_events += static_cast<double>(p.events());
  mean_events /= static_cast<double>(plans.size());

  const std::uint64_t cap_ns = ns_of(ph.warm_s + ph.capacity_s);

  if (!args.trace) {
    const auto cap = inproc_closed(*sut, *book, shape.clients, cap_ns,
                                   SIZE_MAX, none);
    run.absorb(cap);
    const auto nom = inproc_open(*sut, *book, shape, shape_seed(args.seed, 7),
                                 ns_of(ph.nominal_s), none, false, mean_events);
    run.absorb(nom);
    end_to_end(run, setups, cap, nom);
    generator_notes(run, nom, false);
    if (sut->manager().stats().query_rejected != stats0.query_rejected)
      run.invalid("query rejected");
    return;
  }

  layer_defaults(run);
  const auto plain = inproc_closed(*sut, *book, shape.clients, cap_ns,
                                   SIZE_MAX, none);
  run.absorb(plain);
  const auto before_cap = sut->manager().stats();
  book->spans = &run.spans;
  const auto cap = inproc_closed(*sut, *book, shape.clients, cap_ns,
                                 SIZE_MAX, spans);
  run.absorb(cap);
  const auto after_cap = sut->manager().stats();
  const double untraced = capacity(run, plain, "capacity.untraced");
  const double traced = capacity(run, cap, "capacity.traced");
  set_metric(run, "obs.trace_overhead_frac", 1.0 - ratio(traced, untraced));

  sut->manager().drain();
  (void)sut->manager().take_feed_latency_samples();
  const auto before_nom = sut->manager().stats();
  const auto nom = inproc_open(*sut, *book, shape, shape_seed(args.seed, 7),
                               ns_of(ph.nominal_s), spans, true, mean_events);
  run.absorb(nom);
  book->spans = nullptr;
  const auto after_nom = sut->manager().stats();
  generator_notes(run, nom, true);

  admit_layers(run, nom.call_ns, before_cap, after_cap);
  ring_layers(run, sut->manager().take_feed_latency_samples(), nom.depth);
  double calls = 0;
  for (const double c : nom.call_ns) calls += c;
  const std::uint32_t leg = run.spans.intern("replay.acceptor");
  run.spans.begin(leg, now_ns());
  const double direct = direct_mix_ns_per_symbol(plans);
  run.spans.end(now_ns());
  shard_layers(run, before_nom, after_nom,
               static_cast<double>(nom.sut_cpu_ns) - calls, direct);

  if (deadline) {
    set_metric(run, "deadline.lane.step_ns_per_symbol",
               direct_ns_per_symbol(plans, Kind::DeadlineLane));
  } else {
    set_metric(run, "core.online.feed_ns_per_symbol",
               direct_ns_per_symbol(plans, Kind::DeadlineOnline));
    set_metric(run, "cer.feed_ns_per_symbol",
               direct_ns_per_symbol(plans, Kind::Query));
    std::vector<double> compile_us;
    const std::uint32_t span = run.spans.intern("cer.compile");
    for (int rep = 0; rep < 300; ++rep)
      for (const char* q : kQueries) {
        const std::uint64_t t0 = now_ns();
        run.spans.begin(span, t0);
        auto acc = sut->manager().build_query_acceptor(0, q);
        const std::uint64_t t1 = now_ns();
        run.spans.end(t1);
        compile_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
    const auto [p50, p99] = p50_p99(run, "cer.compile_us", compile_us);
    set_metric(run, "cer.compile_p50_us", p50);
    set_metric(run, "cer.compile_p99_us", p99);
  }
  set_metric(run, "cer.query_rejected",
             static_cast<double>(sut->manager().stats().query_rejected -
                                 stats0.query_rejected));
}

// ------------------------------------------------------------ wire

/// A numeric field of the daemon's JSONL exit row.
double stat_field(const std::string& row, const std::string& key) {
  const auto at = row.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::atof(row.c_str() + at + key.size() + 3);
}

/// The traced wire run's replay of the recorded client byte streams
/// through each in-process entry point, on this thread.
struct Legs {
  double on_bytes_ns = 0;  ///< SUT CPU of the Connection::on_bytes leg
  double apply_ns = 0;     ///< SUT CPU of the SessionManager::apply leg
  double apply_calls_ns = 0;  ///< this thread's CPU inside apply()
  double decode_ns = 0;    ///< Decoder::push/next
  double frames = 0;
  double symbols = 0;
  std::vector<double> call_ns;
  std::vector<std::uint64_t> waits;
  std::vector<double> depth;
  rtw::svc::ServiceStats before, after;
};

constexpr std::size_t kReplayChunk = 16384;

Legs replay_streams(Run& run, const std::vector<std::string>& streams) {
  Legs legs;
  const auto cfg = sut_config();
  // Each leg's SUT CPU = this thread's CPU inside the calls (thread CPU
  // deltas around them) + the shard workers' CPU (process minus this
  // thread).  drain() between chunks keeps the rings shallow so nothing
  // sheds; its waiting on this thread is excluded.
  {
    // Leg 1: the Server facade, fed the exact bytes the daemon read.
    const std::uint32_t leg = run.spans.intern("replay.on_bytes");
    const std::uint32_t call = run.spans.intern("svc.server.on_bytes");
    rtw::svc::Server server(cfg, rtw::svc::profile_factory());
    std::vector<std::shared_ptr<rtw::svc::Connection>> conns;
    for (std::size_t i = 0; i < streams.size(); ++i)
      conns.push_back(server.connect());
    const std::uint64_t p0 = process_cpu_ns(), g0 = thread_cpu_ns();
    run.spans.begin(leg, now_ns());
    std::uint64_t inside = 0;
    std::string sink;
    for (std::size_t off = 0;; off += kReplayChunk) {
      bool any = false;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (off >= streams[i].size()) continue;
        any = true;
        const std::string_view chunk =
            std::string_view(streams[i]).substr(off, kReplayChunk);
        const std::uint64_t t0 = now_ns(), c0 = thread_cpu_ns();
        conns[i]->on_bytes(chunk);
        sink.clear();
        conns[i]->take_output(sink, SIZE_MAX);
        inside += thread_cpu_ns() - c0;
        run.spans.begin(call, t0);
        run.spans.end(now_ns());
      }
      if (!any) break;
      server.manager().drain();
    }
    server.manager().drain();
    for (auto& c : conns) {
      sink.clear();
      c->take_output(sink, SIZE_MAX);
    }
    run.spans.end(now_ns());
    const std::uint64_t p1 = process_cpu_ns(), g1 = thread_cpu_ns();
    legs.on_bytes_ns = static_cast<double>((p1 - p0) - (g1 - g0) + inside);
    if (server.manager().stats().shed != 0) run.invalid("replay shed");
    for (auto& c : conns) server.disconnect(c);
  }
  {
    // Leg 2: the decoder alone, then SessionManager::apply over its events.
    const std::uint32_t dec_leg = run.spans.intern("replay.decode");
    const std::uint32_t app_leg = run.spans.intern("replay.apply");
    const std::uint32_t call = run.spans.intern("svc.admit.apply");
    SessionManager m(cfg.shard, cfg.ingress);
    m.set_report_sink([](const rtw::svc::SessionReport&) { return true; });
    const auto factory = rtw::svc::profile_factory();
    std::vector<rtw::svc::Decoder> decoders(streams.size());
    legs.before = m.stats();
    std::uint64_t workers = 0, inside = 0, n = 0;
    std::vector<WireEvent> events;
    for (std::size_t off = 0;; off += kReplayChunk) {
      bool any = false;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (off >= streams[i].size()) continue;
        any = true;
        events.clear();
        const std::string_view chunk =
            std::string_view(streams[i]).substr(off, kReplayChunk);
        std::uint64_t t0 = now_ns(), c0 = thread_cpu_ns();
        decoders[i].push(chunk);
        WireEvent ev;
        while (decoders[i].next(ev)) events.push_back(std::move(ev));
        legs.decode_ns += static_cast<double>(thread_cpu_ns() - c0);
        run.spans.begin(dec_leg, t0);
        run.spans.end(now_ns());
        const std::uint64_t p0 = process_cpu_ns(), g0 = thread_cpu_ns();
        run.spans.begin(app_leg, now_ns());
        for (const auto& e : events) {
          if (e.kind == WireEvent::Kind::Hello) continue;
          if (e.kind == WireEvent::Kind::Symbols)
            legs.symbols += static_cast<double>(e.symbols.size());
          // Time one call in 16 for the latency distribution; the rest
          // run untimed so the leg's CPU carries no timer overhead.
          if ((n++ & 15) == 0) {
            t0 = now_ns();
            m.apply(e, factory);
            const std::uint64_t t1 = now_ns();
            run.spans.begin(call, t0, e.session);
            run.spans.end(t1);
            legs.call_ns.push_back(static_cast<double>(t1 - t0));
          } else {
            m.apply(e, factory);
          }
        }
        const std::uint64_t g1 = thread_cpu_ns();
        for (unsigned s = 0; s < m.shards(); ++s)
          legs.depth.push_back(static_cast<double>(m.ring_depth(s)));
        m.drain();
        run.spans.end(now_ns());
        const std::uint64_t p2 = process_cpu_ns(), g2 = thread_cpu_ns();
        inside += g1 - g0;
        workers += (p2 - p0) - (g2 - g0);
      }
      if (!any) break;
    }
    legs.apply_calls_ns = static_cast<double>(inside);
    legs.apply_ns = static_cast<double>(workers + inside);
    for (const auto& d : decoders)
      legs.frames += static_cast<double>(d.frames()) - 1;  // less the Hello
    legs.after = m.stats();
    legs.waits = m.take_feed_latency_samples();
    if (legs.after.shed != legs.before.shed) run.invalid("replay shed");
  }
  return legs;
}

void run_wire(const Args& args, const std::vector<Plan>& plans,
              const std::vector<Observed>& replay, Run& run) {
  const Shape shape = shape_of(args.workload);
  const Phases ph = phases_of(args.seconds);
  std::vector<double> setups;
  std::unique_ptr<WireSut> sut;
  for (int r = 0; r < kSetupReps; ++r) {
    sut.reset();
    sut = std::make_unique<WireSut>();
    const std::uint64_t t0 = now_ns();
    if (!wire_setup(args.daemon, *sut))
      throw std::runtime_error("cannot start or reach " + args.daemon);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Book book(plans, replay);
  WireSpans spans;
  spans.encode = run.spans.intern("client.encode");
  spans.write = run.spans.intern("client.write");
  spans.read = run.spans.intern("client.read");
  spans.decode = run.spans.intern("client.decode");
  WireDriver driver(*sut, book, spans);
  const std::uint64_t cap_ns = ns_of(ph.warm_s + ph.capacity_s);

  if (!args.trace) {
    const auto cap = driver.closed(cap_ns);
    run.absorb(cap);
    const auto nom =
        driver.open(shape, shape_seed(args.seed, 7), ns_of(ph.nominal_s));
    run.absorb(nom);
    end_to_end(run, setups, cap, nom);
    generator_notes(run, nom, false);
    sut->conns.clear();
    const std::string row = sut->daemon.stop();
    if (stat_field(row, "frame_errors") != 0) run.invalid("daemon frame errors");
    return;
  }

  layer_defaults(run);
  const auto plain = driver.closed(cap_ns);
  run.absorb(plain);
  book.spans = &run.spans;
  const auto cap = driver.closed(cap_ns);
  run.absorb(cap);
  const double untraced = capacity(run, plain, "capacity.untraced");
  const double traced = capacity(run, cap, "capacity.traced");
  set_metric(run, "obs.trace_overhead_frac", 1.0 - ratio(traced, untraced));
  for (auto& c : sut->conns) c->record = true;
  const auto nom =
      driver.open(shape, shape_seed(args.seed, 7), ns_of(ph.nominal_s));
  run.absorb(nom);
  book.spans = nullptr;
  generator_notes(run, nom, true);

  std::vector<std::string> streams;
  for (auto& c : sut->conns) streams.push_back(rtw::svc::encode_hello() + c->recorded);
  sut->conns.clear();
  const std::string row = sut->daemon.stop();
  const double ingested = stat_field(row, "symbols_ingested");
  const double read_bytes = stat_field(row, "read_bytes");
  const double written = stat_field(row, "written_bytes");
  const double closed = stat_field(row, "sessions_closed");
  const double shed = stat_field(row, "symbols_shed");
  const double frame_errors = stat_field(row, "frame_errors");
  if (frame_errors != 0) run.invalid("daemon frame errors");
  set_metric(run, "svc.net.read_bytes_per_symbol", ratio(read_bytes, ingested));
  set_metric(run, "svc.net.write_bytes_per_verdict", ratio(written, closed));
  set_metric(run, "svc.net.read_pauses", stat_field(row, "read_pauses"));
  set_metric(run, "svc.net.frame_errors", frame_errors);

  // Three replays; each leg's CPU is the median, since the per-frame
  // self times are differences of legs.
  std::vector<Legs> reps;
  for (int r = 0; r < 3; ++r) reps.push_back(replay_streams(run, streams));
  Legs legs = reps.front();
  const auto mid = [&reps](double Legs::*field) {
    std::vector<double> v;
    for (const auto& l : reps) v.push_back(l.*field);
    return median(v);
  };
  legs.on_bytes_ns = mid(&Legs::on_bytes_ns);
  legs.apply_ns = mid(&Legs::apply_ns);
  legs.apply_calls_ns = mid(&Legs::apply_calls_ns);
  legs.decode_ns = mid(&Legs::decode_ns);
  const double daemon_per_sym = ratio(static_cast<double>(nom.sut_cpu_ns),
                                      static_cast<double>(nom.symbols));
  set_metric(run, "svc.net.self_ns_per_symbol",
             daemon_per_sym - ratio(legs.on_bytes_ns, legs.symbols));
  set_metric(run, "svc.server.self_ns_per_frame",
             ratio(legs.on_bytes_ns - legs.apply_ns - legs.decode_ns, legs.frames));
  set_metric(run, "svc.wire.decode_ns_per_frame", ratio(legs.decode_ns, legs.frames));
  set_metric(run, "svc.wire.frames_per_symbol", ratio(legs.frames, legs.symbols));
  admit_layers(run, legs.call_ns, legs.before, legs.after);
  // The daemon's own shed tally is the one that saw capacity load.
  set_metric(run, "svc.admit.shed_frac_at_capacity", ratio(shed, shed + ingested));
  ring_layers(run, legs.waits, legs.depth);
  const std::uint32_t leg = run.spans.intern("replay.acceptor");
  run.spans.begin(leg, now_ns());
  const double direct = direct_mix_ns_per_symbol(plans);
  run.spans.end(now_ns());
  shard_layers(run, legs.before, legs.after, legs.apply_ns - legs.apply_calls_ns,
               direct);
}

// ------------------------------------------------------------ main

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// (steal, total) jiffies of all CPUs from /proc/stat: the share of CPU
/// time the hypervisor took from this machine while the run measured.
std::pair<double, double> host_ticks() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  in >> cpu;
  double v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string cpu_model() {
  std::istringstream in(read_file("/proc/cpuinfo"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v && *v ? v : fallback;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload_name = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--daemon") a.daemon = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  if (argc % 2 == 0) return false;
  if (a.workload_name == "wire_count") a.workload = Workload::Wire;
  else if (a.workload_name == "inproc_deadline") a.workload = Workload::Deadline;
  else if (a.workload_name == "inproc_churn") a.workload = Workload::Churn;
  else return false;
  return a.seconds > 0;
}

void write_trace(const Run& run, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  const auto& names = run.spans.names();
  for (const auto& r : run.spans.kept())
    out << "{\"name\":" << quote(names[r.name]) << ",\"parent\":" << r.parent
        << ",\"start_ns\":" << r.start_ns << ",\"dur_ns\":"
        << (r.end_ns > r.start_ns ? r.end_ns - r.start_ns : 0)
        << ",\"session\":" << r.session << "}\n";
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    const auto& t = run.spans.totals(i);
    out << "{\"summary\":" << quote(names[i]) << ",\"count\":" << t.count
        << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns()
        << "}\n";
  }
}

int main_impl(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: servbench_gen --workload wire_count|inproc_deadline|"
                 "inproc_churn --seed N --seconds S --trace 0|1 "
                 "[--daemon PATH] [--trace-out PATH]\n";
    return 2;
  }
  const Shape shape = shape_of(args.workload);

  // Inputs: a seeded pool of plans, each checked against its direct
  // replay before the system under test sees it.
  rtw::sim::Xoshiro256ss rng(shape_seed(args.seed, 1));
  std::vector<Plan> plans;
  plans.reserve(shape.pool);
  for (const auto& s : strata(rng, shape.pool))
    plans.push_back(args.workload == Workload::Wire ? wire_plan(rng, s)
                    : args.workload == Workload::Deadline
                        ? inproc_deadline_plan(rng, s)
                        : churn_plan(rng, s));
  std::vector<Observed> replay;
  Run run;
  for (const auto& p : plans) {
    replay.push_back(replay_direct(p));
    if (replay.back().verdict != p.expected) ++run.mismatches;
  }
  if (run.mismatches) run.invalid("direct replay disagrees with expectations");

  const auto ticks0 = host_ticks();
  if (args.workload == Workload::Wire) run_wire(args, plans, replay, run);
  else run_inproc(args, plans, replay, run);
  const auto ticks1 = host_ticks();

  run.note("workload", args.workload_name);
  run.note("seed", static_cast<double>(args.seed));
  run.note("seconds", args.seconds);
  run.note("trace", args.trace ? 1.0 : 0.0);
  run.note("host.cpu_model", cpu_model());
  run.note("host.steal_frac", ratio(ticks1.first - ticks0.first,
                                    ticks1.second - ticks0.second));
  run.note("host.nproc", static_cast<double>(std::thread::hardware_concurrency()));
  run.note("build.type", SERVBENCH_BUILD_TYPE);
  run.note("build.compiler", SERVBENCH_COMPILER);
  run.note("build.git_sha", env_or("SERVBENCH_GIT_SHA", "unknown"));
  run.note("build.source_sha256", env_or("SERVBENCH_SOURCE_SHA256", "unknown"));
  run.note("build.dispatch_variant",
           std::string(rtw::core::to_string(rtw::core::dispatch_variant())));
  run.note("sessions.attempted", static_cast<double>(run.tally.attempted));
  run.note("sessions.wrong", static_cast<double>(run.tally.wrong));
  run.note("sessions.missing", static_cast<double>(run.tally.missing));
  run.note("sessions.refused", static_cast<double>(run.tally.refused));
  run.note("sessions.shed", static_cast<double>(run.tally.shed));
  run.note("mismatches", static_cast<double>(run.mismatches));
  if (!run.valid) run.note("invalid", run.why);
  for (std::uint32_t i = 0; i < run.spans.names().size(); ++i)
    if (run.spans.totals(i).count)
      run.note("span." + run.spans.names()[i] + ".self_ns",
               static_cast<double>(run.spans.totals(i).self_ns()));
  write_trace(run, args.trace ? args.trace_out : std::string());

  std::string env = "{\"envelope\":{";
  for (std::size_t i = 0; i < run.envelope.size(); ++i)
    env += (i ? "," : "") + quote(run.envelope[i].first) + ":" +
           run.envelope[i].second;
  std::cout << env << "}}\n";

  const bool correct = run.valid && run.mismatches == 0 && run.tally.wrong == 0;
  std::string line = std::string("{\"correct\":") + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(run.tally.attempted) +
                     ",\"failed\":" + std::to_string(run.tally.failed()) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < run.metrics.size(); ++i)
    line += (i ? "," : "") + quote(run.metrics[i].name) + ":{\"value\":" +
            num(run.metrics[i].value) + ",\"unit\":" +
            quote(run.metrics[i].unit) + "}";
  std::cout << line << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace servbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  prctl(PR_SET_TIMERSLACK, 1UL);  // ppoll wakes on time, not 50 us late
  try {
    return servbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "servbench_gen: " << e.what() << "\n";
    return 1;
  }
}
