#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "layers.h"
#include "src/duel/check.h"
#include "src/duel/lexer.h"
#include "src/duel/parser.h"
#include "src/duel/sema.h"
#include "src/duel/session.h"
#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/socket_transport.h"
#include "src/serve/service.h"
#include "src/support/strings.h"
#include "world.h"

namespace perfbench {

using duel::QueryResult;
using duel::Session;

namespace {

// Set-up is repeated this many times per run and its median reported, so a
// change that moves work into set-up shows in setup_s.
constexpr int kSetups = 9;
// Share of a traced run spent on the untraced reference phase (the rest runs
// with the timing decorators); their p50 difference is the tracing overhead.
constexpr double kUntracedShare = 0.4;
// Serve: logical clients, each with one request outstanding (closed loop).
constexpr int kServeClients = 4;
constexpr double kServeTailPct = 99;

// --- data and query mixes -----------------------------------------------------

// Big data for the paper queries, sized to fit the 1 MiB block cache; remote
// adds a 1.28 MB record table that does not.
WorldSpec ScanSpec() {
  return {.x_len = 10'000, .tree_depth = 12, .list_len = 4'000, .symtab = true};
}
WorldSpec RemoteSpec() {
  WorldSpec s = ScanSpec();
  s.recs_len = 20'000;
  return s;
}
WorldSpec SmallSpec() { return {.a_len = 256, .w_len = 64, .s_len = 32, .t_depth = 5}; }

// A query stream for one session.
class Source {
 public:
  virtual ~Source() = default;
  virtual const Query& Next() = 0;
  // False in the middle of a fixed rotation: loops stop only on whole
  // rounds, so every query of the rotation is sampled equally often.
  virtual bool AtRoundStart() const { return true; }
};

class Rotation final : public Source {
 public:
  explicit Rotation(std::vector<Query> qs) : qs_(std::move(qs)) {}
  const Query& Next() override { return qs_[i_++ % qs_.size()]; }
  bool AtRoundStart() const override { return i_ % qs_.size() == 0; }

 private:
  std::vector<Query> qs_;
  size_t i_ = 0;
};

class Mix final : public Source {
 public:
  Mix(const World& w, uint64_t seed) : gen_(w, seed) {}
  const Query& Next() override {
    cur_ = gen_.Next();
    return cur_;
  }

 private:
  MixGen gen_;
  Query cur_;
};

// --- the single-session stack -------------------------------------------------

// Session over SimBackend (local) or over RemoteBackend -> SocketTransport ->
// RspServer -> SimBackend (remote), with the timing decorators when `timed`.
class Stack {
 public:
  Stack(duel::target::TargetImage& image, bool remote, bool timed) {
    sim_ = std::make_unique<duel::dbg::SimBackend>(image);
    duel::dbg::DebuggerBackend* backend = sim_.get();
    if (remote) {
      server_ = std::make_unique<duel::rsp::RspServer>(*sim_);
      socket_ = std::make_unique<duel::rsp::SocketTransport>(*server_);
      duel::rsp::Transport* wire = socket_.get();
      if (timed) {
        timed_wire_ = std::make_unique<TimingTransport>(*socket_);
        wire = timed_wire_.get();
      }
      remote_ = std::make_unique<duel::rsp::RemoteBackend>(*wire);
      backend = remote_.get();
    }
    if (timed) {
      timed_backend_ = std::make_unique<TimingBackend>(*backend);
      backend = timed_backend_.get();
    }
    backend_ = backend;
    session_ = std::make_unique<Session>(*backend);
  }

  Session& session() { return *session_; }
  duel::dbg::DebuggerBackend& backend() { return *backend_; }
  TimingBackend* timed_backend() { return timed_backend_.get(); }
  TimingTransport* timed_wire() { return timed_wire_.get(); }

 private:
  std::unique_ptr<duel::dbg::SimBackend> sim_;
  std::unique_ptr<duel::rsp::RspServer> server_;
  std::unique_ptr<duel::rsp::SocketTransport> socket_;
  std::unique_ptr<TimingTransport> timed_wire_;
  std::unique_ptr<duel::rsp::RemoteBackend> remote_;
  std::unique_ptr<TimingBackend> timed_backend_;
  duel::dbg::DebuggerBackend* backend_ = nullptr;
  std::unique_ptr<Session> session_;
};

// --- measurement helpers --------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

struct Tail {
  double us = 0;
  double pct = 0;       // which percentile it is
  uint64_t beyond = 0;  // samples above it
};

// `pct` (nearest rank) when at least ten samples lie beyond it, else the next
// lower percentile on the ladder that has them.
Tail TailOf(const Histogram& h, double pct) {
  const uint64_t n = h.count();
  for (double p : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    if (p > pct) {
      continue;
    }
    const uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    const uint64_t idx = rank == 0 ? 0 : rank - 1;
    const uint64_t beyond = n == 0 ? 0 : n - 1 - idx;
    if (beyond >= 10 || p == 50.0) {
      return {n == 0 ? 0 : h.AtRank(idx) / 1e3, p, beyond};
    }
  }
  return {};
}

// VmHWM rather than getrusage's ru_maxrss: the latter survives exec, so under
// run.py it would report the Python parent's peak.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

// The measured phase is cut into segments of about this length (closed on a
// whole rotation round); throughput, p50, ns_per_elem and (where every
// segment holds enough samples) the tail are the medians of the per-segment
// figures, so a burst of interference from other tenants of the host spoils
// one segment rather than the run.
constexpr uint64_t kSegmentNs = 1'000'000'000;

// The closed loop's end-to-end record.
struct Loop {
  Histogram latency;      // every sample of the loop
  uint64_t latency_sum_ns = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  std::map<std::string, Histogram>* by_text = nullptr;  // rotations only

  // Per-segment figures. seg_tail_us only holds segments with at least ten
  // samples beyond tail_pct.
  double tail_pct = 99.9;
  std::vector<double> seg_qps, seg_p50_us, seg_ns_per_elem, seg_tail_us;
  Histogram seg;
  uint64_t seg_start = 0;
  uint64_t seg_elem_ns = 0;   // latency of the segment's element-bearing queries
  uint64_t seg_elements = 0;  // elements those queries visit

  void Start(uint64_t now) {
    seg_start = now;
    seg.Reset();
    seg_elem_ns = 0;
    seg_elements = 0;
  }
  // Closes the segment when it is long enough and `boundary` allows (or
  // unconditionally with `last`, if nothing was closed yet).
  void Tick(uint64_t now, bool boundary, bool last = false) {
    const bool due = now - seg_start >= kSegmentNs && boundary;
    if (!(due || (last && seg_qps.empty())) || seg.count() == 0) {
      return;
    }
    seg_qps.push_back(static_cast<double>(seg.count()) * 1e9 /
                      static_cast<double>(now - seg_start));
    seg_p50_us.push_back(seg.Median() / 1e3);
    seg_ns_per_elem.push_back(Div(static_cast<double>(seg_elem_ns),
                                  static_cast<double>(seg_elements)));
    if (Tail t = TailOf(seg, tail_pct); t.pct == tail_pct) {
      seg_tail_us.push_back(t.us);
    }
    Start(now);
  }

  void Record(const Query& q, uint64_t ns, const std::string& mismatch) {
    attempted++;
    latency.Record(ns);
    seg.Record(ns);
    latency_sum_ns += ns;
    if (by_text != nullptr) {
      (*by_text)[q.text].Record(ns);
    }
    if (q.elements > 0) {
      seg_elem_ns += ns;
      seg_elements += q.elements;
    }
    Fail(q, mismatch);
  }
  void Fail(const Query& q, const std::string& why) {
    if (why.empty()) {
      return;
    }
    failed++;
    if (first_failure.empty()) {
      first_failure = q.text + ": " + why;
    }
  }
};

// The tail is the median of the segments' tails when every segment had enough
// samples for the loop's percentile, else one percentile over the whole run.
void AddEndToEnd(Report& rep, const Loop& loop, double setup_s) {
  const bool per_segment = loop.seg_tail_us.size() == loop.seg_qps.size();
  const Tail t = TailOf(loop.latency, loop.tail_pct);
  rep.Add("throughput_qps", Median(loop.seg_qps), "1/s");
  rep.Add("latency_p50_us", Median(loop.seg_p50_us), "us");
  rep.Add("latency_tail_us", per_segment ? Median(loop.seg_tail_us) : t.us, "us");
  rep.Add("ns_per_elem", Median(loop.seg_ns_per_elem), "ns");
  rep.Add("setup_s", setup_s, "s");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::string segs;
  for (double q : loop.seg_qps) {
    segs += duel::StrPrintf(" %.4g", q);
  }
  rep.notes.push_back("segment throughput_qps:" + segs);
  rep.notes.push_back(duel::StrPrintf(
      "latency_tail_us is p%g %s: %llu samples, %llu beyond it over the run; %zu segments; "
      "failed_share = %llu/%llu = %.6f",
      per_segment ? loop.tail_pct : t.pct,
      per_segment ? "per segment, median over segments" : "over the whole run",
      static_cast<unsigned long long>(loop.latency.count()),
      static_cast<unsigned long long>(t.beyond), loop.seg_qps.size(),
      static_cast<unsigned long long>(loop.failed),
      static_cast<unsigned long long>(loop.attempted),
      Div(static_cast<double>(loop.failed), static_cast<double>(loop.attempted))));
}

void Absorb(Report& rep, const Loop& loop) {
  rep.attempted += loop.attempted;
  rep.failed += loop.failed;
  if (!loop.first_failure.empty()) {
    rep.correct = false;
    rep.notes.push_back("first failure: " + loop.first_failure);
  }
}

// --- single-session workloads (scan, interactive, remote) ----------------------

struct SingleKind {
  WorldSpec spec;
  bool remote = false;
  bool mix = false;        // interactive stream, else the paper rotation
  size_t warmup = 0;       // queries run during set-up
  size_t count_pass = 0;   // queries in the exact-count pass
  double tail_pct = 99;  // see README.md: latency_tail_us
};

SingleKind KindOf(const std::string& workload) {
  if (workload == "scan") {
    return {ScanSpec(), false, false, 4, 8, 95};
  }
  if (workload == "remote") {
    return {RemoteSpec(), true, false, 5, 10, 90};
  }
  return {SmallSpec(), false, true, 500, 2000, 99};  // interactive
}

// One set-up: image, session (over the wire for remote) and warm-up.
struct Single {
  std::unique_ptr<World> world;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Source> source;
};

Single SetUp(const SingleKind& k, uint64_t seed, bool timed, Loop& warm) {
  Single s;
  s.world = std::make_unique<World>(BuildWorld(k.spec, seed));
  s.stack = std::make_unique<Stack>(*s.world->image, k.remote, timed);
  if (k.mix) {
    s.source = std::make_unique<Mix>(*s.world, seed ^ 0x5eedull);
  } else {
    std::vector<Query> qs = PaperQueries(*s.world);
    if (k.remote) {
      qs.push_back(RecordScan(*s.world));
    }
    s.source = std::make_unique<Rotation>(std::move(qs));
  }
  for (size_t i = 0; i < k.warmup; ++i) {
    const Query& q = s.source->Next();
    QueryResult r = s.stack->session().Query(q.text);
    warm.Fail(q, Mismatch(r, q.expect));
  }
  return s;
}

Loop RunPlain(Single& s, double seconds, double tail_pct,
              std::map<std::string, Histogram>* by_text = nullptr) {
  Loop loop;
  loop.tail_pct = tail_pct;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  Session& session = s.stack->session();
  loop.by_text = by_text;
  loop.Start(start);
  while (NowNs() < deadline || !s.source->AtRoundStart()) {
    const Query& q = s.source->Next();
    const uint64_t t0 = NowNs();
    QueryResult r = session.Query(q.text);
    const uint64_t t1 = NowNs();
    loop.Record(q, t1 - t0, Mismatch(r, q.expect));
    loop.Tick(t1, s.source->AtRoundStart());
  }
  loop.Tick(NowNs(), true, /*last=*/true);
  loop.by_text = nullptr;
  return loop;
}

// Exact counts of one deterministic pass; two passes with one seed must match.
struct Counts {
  uint64_t values = 0, eval_steps = 0, applies = 0, symbolic_builds = 0;
  uint64_t plan_hits = 0, plan_misses = 0, plan_invalidations = 0;
  uint64_t block_fetches = 0, bytes_fetched = 0, backend_calls = 0, backend_bytes = 0;
  uint64_t rsp_round_trips = 0, rsp_wire_bytes = 0;

  bool operator==(const Counts&) const = default;
  std::string Json() const {
    return duel::StrPrintf(
        "{\"values\":%llu,\"eval_steps\":%llu,\"applies\":%llu,\"symbolic_builds\":%llu,"
        "\"plan_hits\":%llu,\"plan_misses\":%llu,\"plan_invalidations\":%llu,"
        "\"block_fetches\":%llu,\"bytes_fetched\":%llu,\"backend_calls\":%llu,"
        "\"backend_bytes_read\":%llu,\"rsp_round_trips\":%llu,\"rsp_wire_bytes\":%llu}",
        U(values), U(eval_steps), U(applies), U(symbolic_builds), U(plan_hits), U(plan_misses),
        U(plan_invalidations), U(block_fetches), U(bytes_fetched), U(backend_calls),
        U(backend_bytes), U(rsp_round_trips), U(rsp_wire_bytes));
  }
  static unsigned long long U(uint64_t v) { return static_cast<unsigned long long>(v); }
};

Counts CountPass(const SingleKind& k, uint64_t seed, Loop& check) {
  SingleKind cold = k;
  cold.warmup = 0;
  Single s = SetUp(cold, seed, /*timed=*/true, check);
  Counts c;
  Session& session = s.stack->session();
  for (size_t i = 0; i < k.count_pass; ++i) {
    const Query& q = s.source->Next();
    QueryResult r = session.Query(q.text);
    check.Fail(q, Mismatch(r, q.expect));
    c.values += r.value_count;
  }
  const duel::EvalCounters& e = session.context().counters();
  const duel::PlanCacheCounters& p = session.plan_cache().counters();
  const duel::CacheCounters& a = session.context().access().counters();
  c.eval_steps = e.eval_steps;
  c.applies = e.applies;
  c.symbolic_builds = e.symbolic_builds;
  c.plan_hits = p.hits;
  c.plan_misses = p.misses;
  c.plan_invalidations = p.invalidations;
  c.block_fetches = a.block_fetches;
  c.bytes_fetched = a.bytes_fetched;
  c.backend_calls = s.stack->timed_backend()->counts().calls;
  c.backend_bytes = s.stack->timed_backend()->counts().bytes;
  if (TimingTransport* t = s.stack->timed_wire()) {
    c.rsp_round_trips = t->counts().calls;
    c.rsp_wire_bytes = t->counts().bytes;
  }
  return c;
}

// Per-layer sums over the traced phase.
struct Layers {
  uint64_t queries = 0, query_ns = 0, read_query_ns = 0;
  // Front end, timed by calling each stage directly on plan misses.
  uint64_t lex_ns = 0, parse_ns = 0, sema_ns = 0, check_ns = 0;
  uint64_t tokens = 0, nodes = 0, folded = 0;
  // Plan cache (around Query) and Prepare on a hit.
  uint64_t plan_lookups = 0, plan_hits = 0, plan_invalidations = 0;
  uint64_t prepare_hit_ns = 0, prepares = 0;
  // Evaluation (around Drive, reads only) and output (Query - Drive).
  uint64_t values = 0, eval_ns = 0, output_ns = 0, explained_ns = 0;
  uint64_t steps = 0, applies = 0, symbolic = 0;
  // Access layer, backend and wire (around Query).
  uint64_t cache_hits = 0, cache_misses = 0, block_fetches = 0, bytes_fetched = 0;
  uint64_t cache_invalidations = 0;
  BoundaryCounts backend, wire;
};

struct FrontEnd {
  uint64_t lex_ns = 0, parse_ns = 0, sema_ns = 0, check_ns = 0;
  size_t tokens = 0, nodes = 0, folded = 0;
};

// The staged pipeline's front half, one public call per stage, exactly as
// Session builds a plan on a miss.
FrontEnd TimeFrontEnd(Session& session, duel::dbg::DebuggerBackend& backend,
                      const std::string& text) {
  FrontEnd f;
  const uint64_t t0 = NowNs();
  std::vector<duel::Token> tokens = duel::Lexer(text).LexAll();
  const uint64_t t1 = NowNs();
  duel::Parser parser(tokens, [&backend](const std::string& name) {
    return backend.GetTargetTypedef(name) != nullptr;
  });
  duel::ParseResult parsed = parser.Parse();
  const uint64_t t2 = NowNs();
  duel::Annotations notes = duel::Analyze(session.context(), *parsed.root, parsed.num_nodes);
  const uint64_t t3 = NowNs();
  duel::CheckResult verdict = duel::CheckQuery(session.context(), *parsed.root, &notes);
  const uint64_t t4 = NowNs();
  f.lex_ns = t1 - t0;
  f.parse_ns = t2 - t1;
  f.sema_ns = t3 - t2;
  f.check_ns = t4 - t3;
  f.tokens = tokens.size();
  f.nodes = static_cast<size_t>(parsed.num_nodes);
  f.folded = notes.stats.nodes_folded;
  return f;
}

// The traced loop: Query as the user sends it (timed, with counter deltas);
// on a plan miss the front-end stages again, one by one; then, for reads,
// Drive (evaluation without output) and Prepare (a plan hit) on the same text.
Loop RunTraced(Single& s, double seconds, Layers& L) {
  Loop loop;
  Session& session = s.stack->session();
  TimingBackend& tb = *s.stack->timed_backend();
  TimingTransport* tw = s.stack->timed_wire();
  duel::EvalContext& ctx = session.context();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < deadline || !s.source->AtRoundStart()) {
    const Query& q = s.source->Next();
    const duel::PlanCacheCounters p0 = session.plan_cache().counters();
    const duel::CacheCounters a0 = ctx.access().counters();
    const BoundaryCounts b0 = tb.counts();
    const BoundaryCounts w0 = tw != nullptr ? tw->counts() : BoundaryCounts{};
    const uint64_t t0 = NowNs();
    QueryResult r = session.Query(q.text);
    const uint64_t query_ns = NowNs() - t0;
    loop.Record(q, query_ns, Mismatch(r, q.expect));

    const duel::PlanCacheCounters& p1 = session.plan_cache().counters();
    const duel::CacheCounters& a1 = ctx.access().counters();
    L.queries++;
    L.query_ns += query_ns;
    L.plan_lookups += p1.lookups - p0.lookups;
    L.plan_hits += p1.hits - p0.hits;
    L.plan_invalidations += p1.invalidations - p0.invalidations;
    L.cache_hits += a1.hits - a0.hits;
    L.cache_misses += a1.misses - a0.misses;
    L.block_fetches += a1.block_fetches - a0.block_fetches;
    L.bytes_fetched += a1.bytes_fetched - a0.bytes_fetched;
    L.cache_invalidations += a1.invalidations - a0.invalidations;
    const BoundaryCounts db = tb.counts() - b0;
    L.backend.calls += db.calls;
    L.backend.busy_ns += db.busy_ns;
    L.backend.bytes += db.bytes;
    if (tw != nullptr) {
      const BoundaryCounts dw = tw->counts() - w0;
      L.wire.calls += dw.calls;
      L.wire.busy_ns += dw.busy_ns;
      L.wire.bytes += dw.bytes;
    }

    uint64_t front_ns = 0;
    if (p1.misses != p0.misses) {
      FrontEnd f = TimeFrontEnd(session, s.stack->backend(), q.text);
      L.lex_ns += f.lex_ns;
      L.parse_ns += f.parse_ns;
      L.sema_ns += f.sema_ns;
      L.check_ns += f.check_ns;
      L.tokens += f.tokens;
      L.nodes += f.nodes;
      L.folded += f.folded;
      front_ns = f.lex_ns + f.parse_ns + f.sema_ns + f.check_ns;
    }
    if (q.write || !r.ok) {
      continue;  // evaluating a write again would write twice
    }
    const duel::EvalCounters e0 = ctx.counters();
    const BoundaryCounts d0 = tb.counts();
    const uint64_t t1 = NowNs();
    const uint64_t values = session.Drive(q.text);
    const uint64_t drive_ns = NowNs() - t1;
    const BoundaryCounts dd = tb.counts() - d0;
    const duel::EvalCounters& e1 = ctx.counters();
    const uint64_t t2 = NowNs();
    session.Prepare(q.text);
    const uint64_t prepare_ns = NowNs() - t2;

    L.read_query_ns += query_ns;
    L.prepares++;
    L.prepare_hit_ns += prepare_ns;
    L.values += values;
    L.steps += e1.eval_steps - e0.eval_steps;
    L.applies += e1.applies - e0.applies;
    L.symbolic += e1.symbolic_builds - e0.symbolic_builds;
    L.eval_ns += drive_ns - std::min(drive_ns, prepare_ns + dd.busy_ns);
    L.output_ns += query_ns - std::min(query_ns, front_ns + drive_ns);
    L.explained_ns += std::min(query_ns, front_ns + drive_ns);
  }
  return loop;
}

// The per-layer metrics every traced run reports, zero where a layer is not
// on the workload's path (see README.md for the map).
void AddPerLayer(Report& rep, const Layers& L, double overhead_us, double wire_p50_ns,
                 double queue_wait_us, double mutating_share, double rejected_busy) {
  const double q = static_cast<double>(L.queries);
  const double vals = static_cast<double>(L.values);
  rep.Add("duel.lexer.ns_per_query", Div(L.lex_ns, q), "ns");
  rep.Add("duel.lexer.tokens_per_query", Div(L.tokens, q), "count");
  rep.Add("duel.parser.ns_per_query", Div(L.parse_ns, q), "ns");
  rep.Add("duel.parser.nodes_per_query", Div(L.nodes, q), "count");
  rep.Add("duel.sema.ns_per_query", Div(L.sema_ns, q), "ns");
  rep.Add("duel.sema.nodes_folded", Div(L.folded, q), "count");
  rep.Add("duel.check.ns_per_query", Div(L.check_ns, q), "ns");
  rep.Add("duel.plan.hit_ratio", Div(L.plan_hits, L.plan_lookups), "ratio");
  rep.Add("duel.plan.invalidations_per_kquery", Div(1000.0 * L.plan_invalidations, q), "count");
  rep.Add("duel.plan.prepare_hit_ns", Div(L.prepare_hit_ns, L.prepares), "ns");
  rep.Add("duel.eval.ns_per_value", Div(L.eval_ns, vals), "ns");
  rep.Add("duel.eval.steps_per_value", Div(L.steps, vals), "count");
  rep.Add("duel.eval.applies_per_value", Div(L.applies, vals), "count");
  rep.Add("duel.eval.symbolic_builds_per_value", Div(L.symbolic, vals), "count");
  rep.Add("duel.output.ns_per_value", Div(L.output_ns, vals), "ns");
  rep.Add("dbg.access.hit_ratio", Div(L.cache_hits, L.cache_hits + L.cache_misses), "ratio");
  rep.Add("dbg.access.block_fetches_per_query", Div(L.block_fetches, q), "count");
  rep.Add("dbg.access.bytes_fetched_per_query", Div(L.bytes_fetched, q), "bytes");
  rep.Add("dbg.access.invalidations_per_query", Div(L.cache_invalidations, q), "count");
  rep.Add("dbg.backend.calls_per_query", Div(L.backend.calls, q), "count");
  rep.Add("dbg.backend.busy_ns_per_query", Div(L.backend.busy_ns, q), "ns");
  rep.Add("dbg.backend.bytes_read_per_query", Div(L.backend.bytes, q), "bytes");
  rep.Add("rsp.round_trips_per_query", Div(L.wire.calls, q), "count");
  rep.Add("rsp.wire_bytes_per_query", Div(L.wire.bytes, q), "bytes");
  rep.Add("rsp.round_trip_ns_p50", wire_p50_ns, "ns");
  rep.Add("rsp.busy_share", Div(L.wire.busy_ns, L.query_ns), "ratio");
  rep.Add("serve.queue_wait_us_mean", queue_wait_us, "us");
  rep.Add("serve.mutating_share", mutating_share, "ratio");
  rep.Add("serve.rejected_busy", rejected_busy, "count");
  rep.Add("trace.overhead_us", overhead_us, "us");
  rep.Add("trace.explained_share", Div(L.explained_ns, L.read_query_ns), "ratio");
}

Report RunSingle(const Args& args) {
  const SingleKind k = KindOf(args.workload);
  Report rep;
  if (!args.trace) {
    Loop warm;
    std::vector<double> setups;
    Single s;
    for (int i = 0; i < kSetups; ++i) {
      s = Single{};  // tear the previous set-up down before timing the next
      const uint64_t t0 = NowNs();
      s = SetUp(k, args.seed, /*timed=*/false, warm);
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    std::map<std::string, Histogram> by_text;
    Loop loop = RunPlain(s, args.seconds, k.tail_pct, k.mix ? nullptr : &by_text);
    AddEndToEnd(rep, loop, Median(setups));
    for (const auto& [text, h] : by_text) {
      rep.notes.push_back(duel::StrPrintf("  p50 %12.1f us  x%-5llu %s", h.Median() / 1e3,
                                          static_cast<unsigned long long>(h.count()),
                                          text.c_str()));
    }
    Absorb(rep, warm);
    Absorb(rep, loop);
    return rep;
  }

  // Exact counts: two cold passes over the same seed must agree.
  Loop check;
  const Counts c1 = CountPass(k, args.seed, check);
  const Counts c2 = CountPass(k, args.seed, check);
  rep.notes.push_back(duel::StrPrintf("exact counts, first %zu queries of seed %llu: ",
                                      k.count_pass,
                                      static_cast<unsigned long long>(args.seed)) +
                      c1.Json());
  if (!(c1 == c2)) {
    rep.correct = false;
    rep.notes.push_back("count pass repeated differently: " + c2.Json());
  }
  Absorb(rep, check);

  Loop warm;
  Single plain = SetUp(k, args.seed, /*timed=*/false, warm);
  Loop untraced = RunPlain(plain, args.seconds * kUntracedShare, k.tail_pct);
  plain = Single{};
  Single timed = SetUp(k, args.seed, /*timed=*/true, warm);
  Layers L;
  Loop traced = RunTraced(timed, args.seconds * (1 - kUntracedShare), L);
  double wire_p50 = 0;
  if (TimingTransport* tw = timed.stack->timed_wire()) {
    wire_p50 = tw->round_trip_ns().Median();
  }
  const double overhead = (traced.latency.Median() - untraced.latency.Median()) / 1e3;
  AddPerLayer(rep, L, overhead, wire_p50, 0, 0, 0);
  Absorb(rep, warm);
  Absorb(rep, untraced);
  Absorb(rep, traced);
  return rep;
}

// --- serve ----------------------------------------------------------------------

// A SimBackend over the shared image wrapped in the timing decorator.
// TimingBackend only stores the address of its inner backend, so handing it
// the not-yet-constructed member is safe.
class TimedSim final : public TimingBackend {
 public:
  explicit TimedSim(duel::target::TargetImage& image) : TimingBackend(sim_), sim_(image) {}

 private:
  duel::dbg::SimBackend sim_;
};

class ServeRig {
 public:
  ServeRig(uint64_t seed, bool timed) : world_(BuildWorld(SmallSpec(), seed)) {
    duel::target::TargetImage* image = world_.image.get();
    service_ = std::make_unique<duel::serve::QueryService>(
        [this, image, timed]() -> std::unique_ptr<duel::dbg::DebuggerBackend> {
          if (!timed) {
            return std::make_unique<duel::dbg::SimBackend>(*image);
          }
          auto b = std::make_unique<TimedSim>(*image);
          backends_.push_back(b.get());
          return b;
        });
    for (int c = 0; c < kServeClients; ++c) {
      ids_.push_back(service_->OpenSession());
      gens_.emplace_back(world_, seed ^ (0x5e77e0ull + static_cast<uint64_t>(c)), c,
                         kServeClients);
    }
  }
  ~ServeRig() { service_->Shutdown(); }
  ServeRig(const ServeRig&) = delete;  // the service's factory holds `this`
  ServeRig& operator=(const ServeRig&) = delete;

  // Closed loop: each client keeps one query outstanding until `seconds`
  // (or `max_queries` completions) have passed, then the loop drains.
  Loop Run(double seconds, uint64_t max_queries, uint64_t* values) {
    struct Done {
      int client;
      QueryResult result;
      uint64_t at;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Done> done;  // guarded by mu
    std::vector<Query> pending(kServeClients);
    std::vector<uint64_t> sent(kServeClients);
    Loop loop;
    loop.tail_pct = kServeTailPct;
    int outstanding = 0;
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    auto submit = [&](int c) {
      while (NowNs() < deadline && loop.attempted + static_cast<uint64_t>(outstanding) < max_queries) {
        pending[c] = gens_[c].Next();
        sent[c] = NowNs();
        duel::serve::SubmitStatus st =
            service_->Submit(ids_[c], pending[c].text, [&, c](QueryResult r) {
              const uint64_t at = NowNs();
              std::lock_guard<std::mutex> lock(mu);
              done.push_back({c, std::move(r), at});
              cv.notify_one();
            });
        if (st == duel::serve::SubmitStatus::kAccepted) {
          outstanding++;
          return;
        }
        loop.attempted++;  // a refusal counts as a failed query
        loop.Fail(pending[c], duel::serve::SubmitStatusName(st));
      }
    };
    loop.Start(start);
    for (int c = 0; c < kServeClients; ++c) {
      submit(c);
    }
    while (outstanding > 0) {
      std::deque<Done> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !done.empty(); });
        batch.swap(done);
      }
      for (Done& d : batch) {
        outstanding--;
        const Query& q = pending[d.client];
        loop.Record(q, d.at - sent[d.client], Mismatch(d.result, q.expect));
        *values += d.result.value_count;
        submit(d.client);
      }
      loop.Tick(NowNs(), true);
    }
    loop.Tick(NowNs(), true, /*last=*/true);
    return loop;
  }

  duel::serve::QueryService& service() { return *service_; }
  const std::vector<uint64_t>& ids() const { return ids_; }
  const std::vector<TimingBackend*>& backends() const { return backends_; }

 private:
  World world_;
  std::vector<TimingBackend*> backends_;  // owned by the service's sessions
  std::unique_ptr<duel::serve::QueryService> service_;
  std::vector<uint64_t> ids_;
  std::vector<MixGen> gens_;
};

constexpr uint64_t kServeWarmup = 400;

// Sums the per-session counters of every client (valid only while idle).
Layers SessionCounters(ServeRig& rig) {
  Layers L;
  for (uint64_t id : rig.ids()) {
    Session* s = rig.service().session(id);
    const duel::EvalCounters& e = s->context().counters();
    const duel::PlanCacheCounters& p = s->plan_cache().counters();
    const duel::CacheCounters& a = s->context().access().counters();
    L.steps += e.eval_steps;
    L.applies += e.applies;
    L.symbolic += e.symbolic_builds;
    L.plan_lookups += p.lookups;
    L.plan_hits += p.hits;
    L.plan_invalidations += p.invalidations;
    L.cache_hits += a.hits;
    L.cache_misses += a.misses;
    L.block_fetches += a.block_fetches;
    L.bytes_fetched += a.bytes_fetched;
    L.cache_invalidations += a.invalidations;
  }
  for (TimingBackend* b : rig.backends()) {
    L.backend.calls += b->counts().calls;
    L.backend.busy_ns += b->counts().busy_ns;
    L.backend.bytes += b->counts().bytes;
  }
  return L;
}

Report RunServe(const Args& args) {
  Report rep;
  uint64_t values = 0;
  if (!args.trace) {
    std::vector<double> setups;
    std::unique_ptr<ServeRig> rig;
    for (int i = 0; i < kSetups; ++i) {
      rig.reset();
      const uint64_t t0 = NowNs();
      rig = std::make_unique<ServeRig>(args.seed, false);
      Loop warm = rig->Run(60, kServeWarmup, &values);
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      Absorb(rep, warm);
    }
    Loop loop = rig->Run(args.seconds, UINT64_MAX, &values);
    AddEndToEnd(rep, loop, Median(setups));
    Absorb(rep, loop);
    return rep;
  }

  std::unique_ptr<ServeRig> plain = std::make_unique<ServeRig>(args.seed, false);
  Absorb(rep, plain->Run(60, kServeWarmup, &values));
  Loop untraced = plain->Run(args.seconds * kUntracedShare, UINT64_MAX, &values);
  plain.reset();

  ServeRig rig(args.seed, true);
  Absorb(rep, rig.Run(60, kServeWarmup, &values));
  const duel::serve::ServeStats s0 = rig.service().stats();
  const Layers before = SessionCounters(rig);
  values = 0;
  Loop traced = rig.Run(args.seconds * (1 - kUntracedShare), UINT64_MAX, &values);
  const duel::serve::ServeStats s1 = rig.service().stats();
  const Layers after = SessionCounters(rig);

  Layers L;
  L.queries = traced.attempted;
  L.values = values;
  L.steps = after.steps - before.steps;
  L.applies = after.applies - before.applies;
  L.symbolic = after.symbolic - before.symbolic;
  L.plan_lookups = after.plan_lookups - before.plan_lookups;
  L.plan_hits = after.plan_hits - before.plan_hits;
  L.plan_invalidations = after.plan_invalidations - before.plan_invalidations;
  L.cache_hits = after.cache_hits - before.cache_hits;
  L.cache_misses = after.cache_misses - before.cache_misses;
  L.block_fetches = after.block_fetches - before.block_fetches;
  L.bytes_fetched = after.bytes_fetched - before.bytes_fetched;
  L.cache_invalidations = after.cache_invalidations - before.cache_invalidations;
  L.backend = after.backend - before.backend;
  const double queue_ns = static_cast<double>(s1.queue_ns.sum() - s0.queue_ns.sum());
  const double dispatched = static_cast<double>(s1.queue_ns.count() - s0.queue_ns.count());
  // What the timed boundaries explain of Submit -> done: time queued plus
  // time inside the backend; the rest is session work and dispatch.
  L.explained_ns = static_cast<uint64_t>(queue_ns) + L.backend.busy_ns;
  L.read_query_ns = traced.latency_sum_ns;
  const double overhead = (traced.latency.Median() - untraced.latency.Median()) / 1e3;
  const double ran = static_cast<double>((s1.read_only + s1.mutating) -
                                         (s0.read_only + s0.mutating));
  AddPerLayer(rep, L, overhead, 0, Div(queue_ns, dispatched) / 1e3,
              Div(static_cast<double>(s1.mutating - s0.mutating), ran),
              static_cast<double>(s1.rejected_busy - s0.rejected_busy));
  Absorb(rep, untraced);
  Absorb(rep, traced);
  return rep;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "scan" || name == "interactive" || name == "remote" || name == "serve";
}

Report RunWorkload(const Args& args) {
  return args.workload == "serve" ? RunServe(args) : RunSingle(args);
}

}  // namespace perfbench
