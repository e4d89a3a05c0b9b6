#pragma once
/// \file plans.hpp
/// Seeded session plans for the three workloads, each with the verdict
/// the generator built into it.
///
/// A plan is one session: how it opens, its timed word, where the word is
/// cut into events, and the expected verdict.  Expectations never come
/// from the code under test: `count:K` words are built to hit or overshoot
/// K, deadline words are judged by the section 4.1 acceptance rule written
/// out below, and query words by the declarative reference evaluator
/// `cer::eval_reference`.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/compile.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/cer/reference.hpp"
#include "rtw/core/online.hpp"
#include "rtw/deadline/lane.hpp"
#include "rtw/deadline/online.hpp"
#include "rtw/deadline/problem.hpp"
#include "rtw/sim/rng.hpp"
#include "rtw/svc/profiles.hpp"
#include "rtw/svc/service.hpp"
#include "rtw/svc/session.hpp"
#include "rtw/svc/wire.hpp"

namespace servbench {

using rtw::core::Symbol;
using rtw::core::Tick;
using rtw::core::TimedSymbol;
using rtw::core::Verdict;

enum class Kind : std::uint8_t {
  Count,           ///< wire `count:K` profile
  DeadlineLane,    ///< section 4.1 session behind deadline::make_lane_acceptor
  DeadlineOnline,  ///< the same, behind the engine replica (profile "deadline:C")
  Query,           ///< SubmitQuery with a catalog query
};

/// The four bench_cer catalog queries.
inline constexpr const char* kQueries[] = {
    "a ; b ; c ; d",
    "(a | b | c | d)+",
    "within(8){ a ; (b | c)+ ; d }",
    "(within(4){ a ; b })+ | (c ; d)+",
};

struct Plan {
  Kind kind = Kind::Count;
  std::string open;               ///< profile or query text
  Tick completion = 0;            ///< deadline kinds: P_w's cost
  Tick horizon = 0;               ///< deadline kinds: RunOptions::horizon
  std::vector<TimedSymbol> word;
  std::vector<std::uint32_t> cuts;  ///< event end offsets; back() == size
  Verdict expected = Verdict::Undetermined;

  // Wire plans: the session's whole frame sequence encoded under session
  // id 0, with the offset of every frame so the id can be patched in.
  std::string bytes;
  std::vector<std::uint32_t> frame_offsets;

  /// Open + symbol events + Close.
  std::size_t events() const { return cuts.size() + 2; }
  std::size_t symbols() const { return word.size(); }
  std::vector<TimedSymbol> slice(std::size_t event) const {
    const std::uint32_t b = event == 0 ? 0 : cuts[event - 1];
    return {word.begin() + b, word.begin() + cuts[event]};
  }
};

/// Copies a wire plan's frames with `session` patched into every header
/// ([u32le len][u64le session][u8 op] ...).
inline void append_frames(const Plan& p, std::uint64_t session,
                          std::string& out) {
  const std::size_t base = out.size();
  out += p.bytes;
  for (const auto off : p.frame_offsets)
    for (int b = 0; b < 8; ++b)
      out[base + off + 4 + static_cast<std::size_t>(b)] =
          static_cast<char>((session >> (8 * b)) & 0xff);
}

inline rtw::core::RunOptions deadline_options(const Plan& p) {
  rtw::core::RunOptions o;
  o.horizon = p.horizon;
  return o;
}

/// Horizon = completion + this; covers every generated word's last tick.
inline constexpr Tick kHorizonSlack = 4096;

/// The section 4.1 acceptance rule for an identity-problem word whose
/// proposed output is correct: at completion C, P_m accepts unless a `d`
/// has been seen at or before C and the latest usefulness at or before C
/// is below the minimum.  Header symbols (time 0) are not observations.
inline Verdict deadline_rule(const std::vector<TimedSymbol>& word, Tick c,
                             std::uint64_t min_acceptable) {
  bool passed = false;
  std::uint64_t usefulness = min_acceptable;
  const Symbol d = rtw::core::marks::deadline();
  for (const auto& ts : word) {
    if (ts.time == 0 || ts.time > c) continue;
    if (ts.sym == d) passed = true;
    else if (ts.sym.is_nat()) usefulness = ts.sym.as_nat();
  }
  return !passed || usefulness >= min_acceptable ? Verdict::Accepting
                                                 : Verdict::Rejecting;
}

/// Where plan i of a pool sits in the pool's spread of sizes and
/// positions.  The pool is stratified: every class alternates by index and
/// each continuous choice takes one stratum of [0, 1) per plan (seeded
/// order, seeded offset), so two seeds draw different words with the same
/// mix of work -- the seed changes the inputs, not the load.
struct Stratum {
  std::size_t index = 0;
  double size = 0;      ///< in [0, 1): the plan's length
  double position = 0;  ///< in [0, 1): e.g. where completion falls
};

inline std::vector<Stratum> strata(rtw::sim::Xoshiro256ss& rng,
                                   std::size_t n) {
  const auto shuffled = [&rng, n] {
    std::vector<std::size_t> r(n);
    for (std::size_t i = 0; i < n; ++i) r[i] = i;
    for (std::size_t i = n; i > 1; --i)
      std::swap(r[i - 1], r[rng.uniform(static_cast<std::uint64_t>(i))]);
    return r;
  };
  const auto a = shuffled(), b = shuffled();
  std::vector<Stratum> out(n);
  const double dn = static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = {i, (static_cast<double>(a[i]) + rng.uniform_real()) / dn,
              (static_cast<double>(b[i]) + rng.uniform_real()) / dn};
  return out;
}

/// `lo + floor(u * span)`.
inline std::uint64_t scaled(std::uint64_t lo, double u, std::uint64_t span) {
  return lo + static_cast<std::uint64_t>(u * static_cast<double>(span));
}

/// A deadline word: header `<min> m 1 $ 1 $` at time 0, then one `w` per
/// tick with a (d, usefulness) pair every `pair_every` ticks, until
/// `symbols` elements.  Completion lands inside the word when `inside`
/// and past its end otherwise, at `position` along the range.
inline Plan deadline_plan(rtw::sim::Xoshiro256ss& rng, Kind kind,
                          std::size_t symbols, Tick pair_every, bool inside,
                          double position) {
  constexpr std::uint64_t kMin = 4;
  Plan p;
  p.kind = kind;
  auto& w = p.word;
  w.reserve(symbols);
  w.push_back({Symbol::marker("min"), 0});
  w.push_back({Symbol::nat(kMin), 0});
  w.push_back({Symbol::nat(1), 0});
  w.push_back({rtw::core::marks::dollar(), 0});
  w.push_back({Symbol::nat(1), 0});
  w.push_back({rtw::core::marks::dollar(), 0});
  Tick t = 1;
  while (w.size() < symbols) {
    if (t % pair_every == 0 && w.size() + 2 <= symbols) {
      w.push_back({rtw::core::marks::deadline(), t});
      w.push_back({Symbol::nat(rng.uniform(std::uint64_t{8})), t});
    } else {
      w.push_back({rtw::core::marks::waiting(), t});
    }
    ++t;
  }
  const Tick last = w.back().time;
  p.completion = inside && last > pair_every
                     ? scaled(pair_every, position, last - pair_every)
                     : scaled(last + 1, position, 256);
  p.horizon = p.completion + kHorizonSlack;
  p.expected = deadline_rule(w, p.completion, kMin);
  if (kind == Kind::DeadlineOnline)
    p.open = "deadline:" + std::to_string(p.completion);
  return p;
}

/// Cuts [0, n) into runs of `run` elements (the last may be shorter).
inline std::vector<std::uint32_t> fixed_cuts(std::size_t n, std::size_t run) {
  std::vector<std::uint32_t> cuts;
  for (std::size_t e = run; e < n; e += run)
    cuts.push_back(static_cast<std::uint32_t>(e));
  cuts.push_back(static_cast<std::uint32_t>(n));
  return cuts;
}

/// Cuts [0, n) into runs of 1..max_run elements.
inline std::vector<std::uint32_t> random_cuts(rtw::sim::Xoshiro256ss& rng,
                                              std::size_t n,
                                              std::uint64_t max_run) {
  std::vector<std::uint32_t> cuts;
  std::size_t at = 0;
  while (at < n) {
    at = std::min(n, at + 1 + rng.uniform(max_run));
    cuts.push_back(static_cast<std::uint32_t>(at));
  }
  return cuts;
}

/// `inproc_deadline`: 4096..8191-symbol words fed as 256-symbol runs;
/// completion inside the word for even plans, past it for odd ones.  The
/// words are long so that the shard workers, not the generator's per-open
/// cost, bound the closed loop.
inline Plan inproc_deadline_plan(rtw::sim::Xoshiro256ss& rng,
                                 const Stratum& s) {
  Plan p = deadline_plan(rng, Kind::DeadlineLane, scaled(4096, s.size, 4096),
                         32, s.index % 2 == 0, s.position);
  p.cuts = fixed_cuts(p.word.size(), 256);
  return p;
}

/// A word for catalog query `q`, built near the query's language so that
/// about half the words match; the expectation is the reference
/// evaluator's answer, not the builder's intent.
inline std::vector<TimedSymbol> query_word(rtw::sim::Xoshiro256ss& rng,
                                           std::size_t q, std::size_t n,
                                           bool spoil) {
  std::vector<TimedSymbol> w;
  w.reserve(n);
  const auto chr = [](char c) { return Symbol::chr(c); };
  Tick t = 0;
  switch (q) {
    case 0:  // a ; b ; c ; d -- longer words never match
    case 1:  // (a | b | c | d)+
      for (std::size_t i = 0; i < n; ++i) {
        w.push_back({chr(static_cast<char>('a' + rng.uniform(std::uint64_t{4}))), t});
        t += rng.uniform(std::uint64_t{3});
      }
      break;
    case 2: {  // within(8){ a ; (b | c)+ ; d }
      const Tick span = spoil ? 9 + rng.uniform(std::uint64_t{8}) : 8;
      w.push_back({chr('a'), 0});
      for (std::size_t i = 1; i + 1 < n; ++i)
        w.push_back({chr(rng.bernoulli(0.5) ? 'b' : 'c'),
                     span * i / (n - 1)});
      w.push_back({chr('d'), span});
      return w;
    }
    default: {  // (within(4){ a ; b })+ | (c ; d)+
      const bool ab = rng.bernoulli(0.5);
      for (std::size_t i = 0; i + 1 < n; i += 2) {
        w.push_back({chr(ab ? 'a' : 'c'), t});
        t += ab ? rng.uniform(std::uint64_t{5}) : 1;
        w.push_back({chr(ab ? 'b' : 'd'), t});
        t += 1;
      }
      if (w.size() < n) w.push_back({chr(ab ? 'a' : 'c'), t});
      if (spoil && ab) {
        // Stretch one pair past its window.
        const std::size_t i = 2 * rng.uniform(static_cast<std::uint64_t>(w.size() / 2));
        for (std::size_t j = i + 1; j < w.size(); ++j) w[j].time += 5;
      }
      return w;
    }
  }
  if (spoil) w[rng.uniform(static_cast<std::uint64_t>(n))].sym = chr('e');
  return w;
}

/// `inproc_churn`: 16..128-symbol sessions in 1..8-symbol events; even
/// plans SubmitQuery a catalog query (cycling through the four), odd ones
/// open engine-replica deadline sessions.
inline Plan churn_plan(rtw::sim::Xoshiro256ss& rng, const Stratum& s) {
  const std::size_t n = scaled(16, s.size, 113);
  const std::size_t i = s.index;
  Plan p;
  if (i % 2 == 0) {
    const std::size_t q = (i / 2) % 4;
    p.kind = Kind::Query;
    p.open = kQueries[q];
    p.word = query_word(rng, q, n, (i / 8) % 2 == 1);
    auto parsed = rtw::cer::parse(p.open);
    p.expected = rtw::cer::eval_reference(*parsed.query, p.word)
                     ? Verdict::Accepting
                     : Verdict::Rejecting;
  } else {
    p = deadline_plan(rng, Kind::DeadlineOnline, n, 8, (i / 2) % 2 == 0,
                      s.position);
  }
  p.cuts = random_cuts(rng, p.word.size(), 8);
  return p;
}

/// `wire_count`: a `count:K` session, K in 16..256, hitting K exactly
/// (even plans) or overshooting it, framed as a seeded mix of 1-symbol
/// Feed and 8-symbol FeedBatch frames.
inline Plan wire_plan(rtw::sim::Xoshiro256ss& rng, const Stratum& s) {
  Plan p;
  p.kind = Kind::Count;
  const std::uint64_t k = scaled(16, s.size, 241);
  const bool hit = s.index % 2 == 0;
  const std::size_t n = hit ? k : scaled(k + 1, s.position, k / 4 + 1);
  p.open = "count:" + std::to_string(k);
  for (std::size_t i = 0; i < n; ++i)
    p.word.push_back({Symbol::chr('a'), static_cast<Tick>(i)});
  p.expected = hit ? Verdict::Accepting : Verdict::Rejecting;

  using namespace rtw::svc;
  const auto frame = [&p](std::string f) {
    p.frame_offsets.push_back(static_cast<std::uint32_t>(p.bytes.size()));
    p.bytes += f;
  };
  frame(encode_open(0, p.open));
  std::size_t at = 0;
  while (at < n) {
    if (rng.bernoulli(0.5)) {
      const std::size_t end = std::min(n, at + 8);
      frame(encode_feed_batch(0, {p.word.begin() + at, p.word.begin() + end}));
      at = end;
    } else {
      frame(encode_feed(0, {p.word[at]}));
      ++at;
    }
    p.cuts.push_back(static_cast<std::uint32_t>(at));
  }
  frame(encode_close(0));
  return p;
}

/// The factory the churn workload opens its profile sessions through:
/// "deadline:C" is an engine-replica session whose problem costs C.
inline std::unique_ptr<rtw::core::OnlineAcceptor> make_acceptor(
    const Plan& p) {
  switch (p.kind) {
    case Kind::Count:
      return rtw::svc::make_profile_acceptor(p.open);
    case Kind::DeadlineLane:
      return rtw::deadline::make_lane_acceptor(
          std::make_shared<rtw::deadline::FixedCostProblem>(p.completion),
          deadline_options(p));
    case Kind::DeadlineOnline:
      return rtw::deadline::make_online_acceptor(
          std::make_shared<rtw::deadline::FixedCostProblem>(p.completion),
          deadline_options(p));
    case Kind::Query: {
      auto parsed = rtw::cer::parse(p.open);
      return parsed.ok() ? rtw::cer::make_online_acceptor(*parsed.query)
                         : nullptr;
    }
  }
  return nullptr;
}

/// "deadline:C" -> engine-replica acceptor; anything else is refused.
inline rtw::svc::AcceptorFactory churn_factory() {
  return [](rtw::svc::SessionId, std::string_view profile)
             -> std::unique_ptr<rtw::core::OnlineAcceptor> {
    constexpr std::string_view kPrefix = "deadline:";
    if (profile.substr(0, kPrefix.size()) != kPrefix) return nullptr;
    Plan p;
    p.kind = Kind::DeadlineOnline;
    p.completion = std::strtoull(std::string(profile.substr(kPrefix.size())).c_str(),
                                 nullptr, 10);
    if (p.completion == 0) return nullptr;
    p.horizon = p.completion + kHorizonSlack;
    return make_acceptor(p);
  };
}

/// What a session reported, from a Verdict frame or a SessionReport.
struct Observed {
  Verdict verdict = Verdict::Undetermined;
  bool exact = false;
  std::uint64_t fed = 0;
  std::uint64_t stale = 0;
  bool operator==(const Observed&) const = default;
};

/// The direct-acceptor reference: the plan's events fed straight into a
/// fresh acceptor through svc::Session (same stale filter), one thread.
inline Observed replay_direct(const Plan& p) {
  rtw::svc::Session s(0, make_acceptor(p));
  for (std::size_t e = 0; e < p.cuts.size(); ++e) {
    const std::uint32_t b = e == 0 ? 0 : p.cuts[e - 1];
    s.feed_run(p.word.data() + b, p.cuts[e] - b);
  }
  s.finish(rtw::core::StreamEnd::EndOfWord);
  const auto r = s.report(false);
  return {r.verdict, r.result.exact, r.fed, r.stale_dropped};
}

}  // namespace servbench
