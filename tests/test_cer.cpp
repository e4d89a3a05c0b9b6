/// \file test_cer.cpp
/// The timed-pattern query subsystem: parser, compiler, runtime acceptor,
/// reference evaluator, the compiled-vs-reference differential property
/// (standalone and through SessionManager at 1 and 8 shards), and the
/// compile-once cache with the shared-automaton isolation property.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "proptest.hpp"
#include "rtw/cer/acceptor.hpp"
#include "rtw/cer/cache.hpp"
#include "rtw/cer/compile.hpp"
#include "rtw/cer/parser.hpp"
#include "rtw/cer/query.hpp"
#include "rtw/cer/reference.hpp"
#include "rtw/core/error.hpp"
#include "rtw/obs/metrics.hpp"
#include "rtw/obs/tracer.hpp"
#include "rtw/svc/service.hpp"

using rtw::core::StreamEnd;
using rtw::core::Symbol;
using rtw::core::Tick;
using rtw::core::TimedSymbol;
using rtw::core::Verdict;
namespace cer = rtw::cer;

namespace {

std::vector<TimedSymbol> word_of(
    std::initializer_list<std::pair<char, Tick>> elems) {
  std::vector<TimedSymbol> out;
  for (const auto& [c, t] : elems) out.push_back({Symbol::chr(c), t});
  return out;
}

using Compiled = std::shared_ptr<const cer::CompiledQuery>;

/// Compiles or fails the test.
Compiled must_compile(const cer::Query& q, cer::CompileLimits limits = {}) {
  auto r = cer::compile(q, limits);
  EXPECT_TRUE(r.ok()) << r.error;
  return std::move(r.compiled);
}

Verdict run_to_end(const Compiled& compiled,
                   std::span<const TimedSymbol> word,
                   StreamEnd end = StreamEnd::EndOfWord) {
  cer::CerAcceptor acceptor(compiled);
  for (const auto& e : word) acceptor.feed(e.sym, e.time);
  return acceptor.finish(end);
}

}  // namespace

// ============================================================== 1. parser

TEST(CerParser, AtomsAndPrecedence) {
  // `|` binds loosest, then `;`, then `+`.
  auto r = cer::parse("a ; b | c+");
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& root = r.query->root();
  ASSERT_EQ(root->kind, cer::Node::Kind::Alt);
  EXPECT_EQ(root->left->kind, cer::Node::Kind::Seq);
  EXPECT_EQ(root->right->kind, cer::Node::Kind::Iter);
  EXPECT_EQ(r.query->text(), "a ; b | c+");

  // Every atom form: bare letter, quoted char, nat, marker, wildcard.
  auto atoms = cer::parse("x ; '3' ; 42 ; <boom> ; .");
  ASSERT_TRUE(atoms.ok()) << atoms.error;
  std::vector<Symbol> expected{Symbol::chr('x'), Symbol::chr('3'),
                               Symbol::nat(42), Symbol::marker("boom")};
  const cer::Node* n = atoms.query->root().get();
  std::vector<const cer::Node*> leaves;
  // Left-assoc Seq spine: ((((x ; '3') ; 42) ; <boom>) ; .)
  while (n->kind == cer::Node::Kind::Seq) {
    leaves.push_back(n->right.get());
    n = n->left.get();
  }
  leaves.push_back(n);
  ASSERT_EQ(leaves.size(), 5u);
  EXPECT_EQ(leaves[0]->pred.kind, cer::SymbolPred::Kind::Any);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& pred = leaves[leaves.size() - 1 - i]->pred;
    EXPECT_EQ(pred.kind, cer::SymbolPred::Kind::Exact);
    EXPECT_EQ(pred.sym, expected[i]);
  }
}

TEST(CerParser, WithinGroupsAndParens) {
  auto r = cer::parse("within(7){ a ; (b | c)+ }");
  ASSERT_TRUE(r.ok()) << r.error;
  const auto& root = r.query->root();
  ASSERT_EQ(root->kind, cer::Node::Kind::Within);
  EXPECT_EQ(root->window, 7u);
  EXPECT_EQ(root->left->kind, cer::Node::Kind::Seq);
  EXPECT_EQ(root->left->right->kind, cer::Node::Kind::Iter);
}

TEST(CerParser, RejectsMalformedInput) {
  for (const char* bad : {
           "",                // nothing
           "a ;",             // dangling operator
           "(a",              // unclosed group
           "a)",              // trailing junk
           "within(){a}",     // missing window
           "within(3) a",     // missing braces
           "within(3){}",     // empty body
           "ab",              // unknown keyword
           "'x",              // unterminated literal
           "<>",              // empty marker
           "<m",              // unterminated marker
           "+",               // operator without operand
           "a | | b",         // operator gap
           "99999999999999999999",  // nat overflow
       }) {
    auto r = cer::parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(CerParser, DeepNestingIsAnErrorNotACrash) {
  std::string bomb(4096, '(');
  bomb += 'a';
  bomb.append(4096, ')');
  auto r = cer::parse(bomb);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("nesting"), std::string::npos);
}

TEST(CerParser, CanonicalTextRoundTrips) {
  for (const char* text : {"a", "a ; b | c+", "within(3){ a ; b }",
                           "(a | b) ; c", "((a ; b) | c)+",
                           "within(2){ within(1){ a ; b } ; c }",
                           ". ; '(' ; <m> ; 7"}) {
    auto first = cer::parse(text);
    ASSERT_TRUE(first.ok()) << text << ": " << first.error;
    const std::string canon = first.query->to_string();
    auto second = cer::parse(canon);
    ASSERT_TRUE(second.ok()) << canon << ": " << second.error;
    EXPECT_EQ(second.query->to_string(), canon) << "from " << text;
  }
}

// ============================================================ 2. compiler

TEST(CerCompile, PositionAutomatonShape) {
  // a ; (b | c)+  -- 3 positions + start; transitions: start->a,
  // a->{b,c}, loop-backs {b,c}x{b,c}.
  auto compiled = must_compile(*cer::parse("a ; (b | c)+").query);
  EXPECT_EQ(compiled->num_states, 4u);
  EXPECT_EQ(compiled->num_clocks, 0u);
  EXPECT_EQ(compiled->transitions.size(), 1u + 2u + 4u);
  EXPECT_FALSE(compiled->accepting[0]);
  std::size_t accepting = 0;
  for (bool a : compiled->accepting) accepting += a ? 1 : 0;
  EXPECT_EQ(accepting, 2u);  // b and c positions
}

TEST(CerCompile, WithinAllocatesClocksAndCapsValuations) {
  auto compiled =
      must_compile(*cer::parse("within(9){ a ; b } ; within(4){ c ; d }").query);
  EXPECT_EQ(compiled->num_clocks, 2u);
  EXPECT_EQ(compiled->clock_cap, 10u);  // cmax + 1
}

TEST(CerCompile, LimitsRefuseStructuralBlowups) {
  // 33 nested within() -> clock limit.
  std::string nested;
  for (int i = 0; i < 33; ++i) nested += "within(1){ ";
  nested += "a";
  for (int i = 0; i < 33; ++i) nested += " }";
  auto parsed = cer::parse(nested);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  auto r = cer::compile(*parsed.query);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("clock"), std::string::npos);

  // (x1|...|x70)+ -> ~70^2 loop-backs, past the transition limit.
  cer::Query wide = cer::chr('a');
  for (int i = 0; i < 69; ++i) wide = cer::alt(std::move(wide), cer::any());
  auto big = cer::compile(cer::iter(std::move(wide)));
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.error.find("transition"), std::string::npos);

  EXPECT_FALSE(cer::compile(cer::Query{}).ok());  // empty query

  // The state limit counts the start state: a 255-leaf chain is 256
  // states and compiles, one more leaf is refused.
  const auto chain = [](int leaves) {
    cer::Query q = cer::chr('a');
    for (int i = 1; i < leaves; ++i) q = cer::seq(std::move(q), cer::chr('a'));
    return q;
  };
  auto at_limit = cer::compile(chain(255));
  ASSERT_TRUE(at_limit.ok()) << at_limit.error;
  EXPECT_EQ(at_limit.compiled->num_states, 256u);
  auto past_limit = cer::compile(chain(256));
  ASSERT_FALSE(past_limit.ok());
  EXPECT_NE(past_limit.error.find("state"), std::string::npos);
  // A two-state ceiling admits one leaf, not `a ; b` (three states).
  EXPECT_TRUE(cer::compile(cer::chr('a'), {.max_states = 2}).ok());
  EXPECT_FALSE(cer::compile(chain(2), {.max_states = 2}).ok());
}

// ===================================================== 3. runtime acceptor

TEST(CerAcceptor, AnchoredSequenceSemantics) {
  auto compiled = must_compile(*cer::parse("a ; b").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 1}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}})), Verdict::Rejecting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 1}, {'c', 2}})),
            Verdict::Rejecting);
  EXPECT_EQ(run_to_end(compiled, {}), Verdict::Rejecting);  // no empty word
}

TEST(CerAcceptor, DeadConfigSetLocksRejectingEarly) {
  auto compiled = must_compile(*cer::parse("a ; b").query);
  cer::CerAcceptor acceptor(compiled);
  EXPECT_EQ(acceptor.feed(Symbol::chr('x'), 0), Verdict::Rejecting);
  EXPECT_TRUE(acceptor.result().exact);
  // Final verdicts are sticky; further feeds are no-ops.
  EXPECT_EQ(acceptor.feed(Symbol::chr('a'), 1), Verdict::Rejecting);
  EXPECT_EQ(acceptor.finish(StreamEnd::EndOfWord), Verdict::Rejecting);
  EXPECT_EQ(acceptor.result().symbols_consumed, 1u);
}

TEST(CerAcceptor, WindowConstraintUsesEventTimes) {
  auto compiled = must_compile(*cer::parse("within(3){ a ; b }").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 10}, {'b', 13}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 10}, {'b', 14}})),
            Verdict::Rejecting);
  // Single-event within: trivially inside any window.
  auto single = must_compile(*cer::parse("within(0){ a }").query);
  EXPECT_EQ(run_to_end(single, word_of({{'a', 99}})), Verdict::Accepting);
}

TEST(CerAcceptor, IterationReopensWindowsPerPass) {
  // Each a;b pass must fit in 2 ticks, but passes may be far apart.
  auto compiled = must_compile(*cer::parse("(within(2){ a ; b })+").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 2}, {'a', 50},
                                          {'b', 51}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'b', 2}, {'a', 50},
                                          {'b', 53}})),
            Verdict::Rejecting);
}

TEST(CerAcceptor, WindowOverWholeIteration) {
  auto compiled = must_compile(*cer::parse("within(5){ (a)+ }").query);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'a', 3}, {'a', 5}})),
            Verdict::Accepting);
  EXPECT_EQ(run_to_end(compiled, word_of({{'a', 0}, {'a', 3}, {'a', 6}})),
            Verdict::Rejecting);
}

TEST(CerAcceptor, TruncatedFinishIsInexact) {
  auto compiled = must_compile(*cer::parse("a ; b").query);
  cer::CerAcceptor acceptor(compiled);
  acceptor.feed(Symbol::chr('a'), 0);
  acceptor.feed(Symbol::chr('b'), 1);
  EXPECT_EQ(acceptor.verdict(), Verdict::Undetermined);  // anchored: not yet
  EXPECT_EQ(acceptor.finish(StreamEnd::Truncated), Verdict::Accepting);
  EXPECT_FALSE(acceptor.result().exact);

  acceptor.reset();
  acceptor.feed(Symbol::chr('a'), 0);
  acceptor.feed(Symbol::chr('b'), 1);
  EXPECT_EQ(acceptor.finish(StreamEnd::EndOfWord), Verdict::Accepting);
  EXPECT_TRUE(acceptor.result().exact);
  EXPECT_EQ(acceptor.result().f_count, 1u);       // accepting config at b@1
  ASSERT_TRUE(acceptor.result().first_f.has_value());
  EXPECT_EQ(*acceptor.result().first_f, 1u);
}

TEST(CerAcceptor, NonMonotoneFeedThrows) {
  auto compiled = must_compile(*cer::parse("(a)+").query);
  cer::CerAcceptor acceptor(compiled);
  acceptor.feed(Symbol::chr('a'), 5);
  EXPECT_THROW(acceptor.feed(Symbol::chr('a'), 3), rtw::core::ModelError);
}

TEST(CerAcceptor, FactoryRefusesOversizedQueriesWithNullptr) {
  EXPECT_EQ(cer::make_online_acceptor(cer::chr('a'),
                                      cer::CompileLimits{.max_states = 0}),
            nullptr);
  auto ok = cer::make_online_acceptor(*cer::parse("a | b").query);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->feed(Symbol::chr('b'), 0), Verdict::Undetermined);
  EXPECT_EQ(ok->finish(StreamEnd::EndOfWord), Verdict::Accepting);
}

// ==================================================== 4. reference evaluator

TEST(CerReference, MatchesHandEvaluatedExamples) {
  const auto q = *cer::parse("within(4){ a ; (b | c)+ }").query;
  const auto yes = word_of({{'a', 0}, {'c', 2}, {'b', 4}});
  const auto no_window = word_of({{'a', 0}, {'c', 2}, {'b', 5}});
  const auto no_shape = word_of({{'a', 0}, {'a', 1}});
  EXPECT_TRUE(cer::eval_reference(q, yes));
  EXPECT_FALSE(cer::eval_reference(q, no_window));
  EXPECT_FALSE(cer::eval_reference(q, no_shape));
  EXPECT_FALSE(cer::eval_reference(q, {}));
}

// =========================================== 5. differential property suite

namespace {

/// Random query AST over the word generators' alphabet ('a'..'d' plus
/// the wildcard), node count bounded by `budget`.
cer::Query random_query(rtw::sim::Xoshiro256ss& rng, std::size_t budget) {
  if (budget <= 1 || rng.uniform(std::uint64_t{4}) == 0) {
    if (rng.uniform(std::uint64_t{5}) == 0) return cer::any();
    return cer::chr(static_cast<char>('a' + rng.uniform(std::uint64_t{4})));
  }
  switch (rng.uniform(std::uint64_t{4})) {
    case 0: {
      const std::size_t left = 1 + rng.uniform(budget - 1);
      return cer::seq(random_query(rng, left),
                      random_query(rng, budget - left));
    }
    case 1: {
      const std::size_t left = 1 + rng.uniform(budget - 1);
      return cer::alt(random_query(rng, left),
                      random_query(rng, budget - left));
    }
    case 2:
      return cer::iter(random_query(rng, budget - 1));
    default:
      return cer::within(rng.uniform(std::uint64_t{8}),
                         random_query(rng, budget - 1));
  }
}

/// Random monotone word, then fault-style mutations that preserve
/// monotonicity: drops, duplicates (same timestamp), and cumulative
/// delay jitter -- the wire-level fault modes as seen by one session.
std::vector<TimedSymbol> random_mutated_word(rtw::sim::Xoshiro256ss& rng,
                                             std::size_t size) {
  std::vector<TimedSymbol> word;
  const std::size_t len = rng.uniform(size + 1);
  Tick t = rng.uniform(std::uint64_t{4});
  for (std::size_t i = 0; i < len; ++i) {
    t += rng.uniform(std::uint64_t{4});
    word.push_back({Symbol::chr(static_cast<char>(
                        'a' + rng.uniform(std::uint64_t{4}))),
                    t});
  }
  std::vector<TimedSymbol> mutated;
  Tick shift = 0;
  for (const auto& e : word) {
    if (rng.bernoulli(0.1)) continue;                     // drop
    if (rng.bernoulli(0.1)) shift += rng.uniform(std::uint64_t{3});  // delay
    TimedSymbol out{e.sym, e.time + shift};
    mutated.push_back(out);
    if (rng.bernoulli(0.08)) mutated.push_back(out);      // duplicate
  }
  return mutated;
}

}  // namespace

TEST(CerDifferential, CompiledAcceptorAgreesWithReferenceOnEveryPrefix) {
  rtw::proptest::Config cfg;
  cfg.cases = 500;
  cfg.max_size = 24;
  const auto result = rtw::proptest::run_property(
      "cer_compiled_vs_reference", cfg,
      [](rtw::sim::Xoshiro256ss& rng,
         std::size_t size) -> std::optional<std::string> {
        const cer::Query query =
            random_query(rng, 2 + rng.uniform(std::uint64_t{8}));
        auto compiled = cer::compile(query);
        if (!compiled.ok()) return std::nullopt;  // limits are not a bug
        const auto word = random_mutated_word(rng, size);

        // The canonical rendering must parse back to an equivalent query.
        auto reparsed = cer::parse(query.to_string());
        if (!reparsed.ok())
          return "canonical text failed to parse: " + query.to_string() +
                 " (" + reparsed.error + ")";

        for (std::size_t len = 0; len <= word.size(); ++len) {
          const std::span<const TimedSymbol> prefix(word.data(), len);
          cer::CerAcceptor fresh(compiled.compiled);
          for (const auto& e : prefix) fresh.feed(e.sym, e.time);
          const bool acc =
              fresh.finish(StreamEnd::EndOfWord) == Verdict::Accepting;
          const bool ref = cer::eval_reference(query, prefix);
          const bool ref2 = cer::eval_reference(*reparsed.query, prefix);
          if (acc != ref)
            return "compiled=" + std::to_string(acc) +
                   " reference=" + std::to_string(ref) + " at prefix " +
                   std::to_string(len) + " of query " + query.to_string();
          if (ref2 != ref)
            return "round-tripped query diverged: " + query.to_string();
        }

        // Incremental run: never Accepting mid-stream (anchored), and a
        // Rejecting lock must be justified by the reference.
        cer::CerAcceptor inc(compiled.compiled);
        for (std::size_t i = 0; i < word.size(); ++i) {
          const Verdict v = inc.feed(word[i].sym, word[i].time);
          if (v == Verdict::Accepting)
            return "accepting verdict before finish at element " +
                   std::to_string(i);
          if (v == Verdict::Rejecting) {
            const std::span<const TimedSymbol> prefix(word.data(), i + 1);
            if (cer::eval_reference(query, prefix))
              return "early Rejecting lock contradicts the reference at " +
                     std::to_string(i);
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "cer_compiled_vs_reference", cfg, *result.failure);
  EXPECT_EQ(result.cases_run, cfg.cases);
}

namespace {

/// The same differential, but the compiled side runs as real
/// SessionManager sessions opened through SubmitQuery wire events.
void run_shard_differential(unsigned shards) {
  rtw::svc::ShardConfig shard_cfg;
  shard_cfg.count = shards;
  rtw::svc::IngressConfig ingress_cfg;
  ingress_cfg.ring_capacity = 4096;
  rtw::svc::SessionManager manager(shard_cfg, ingress_cfg);

  rtw::proptest::Config cfg;
  cfg.cases = 500;
  cfg.max_size = 24;
  // Distinct suite seed per shard count so the two runs are independent
  // samples rather than the same 500 scenarios twice.
  cfg.seed ^= shards * 0x5bd1e995u;

  rtw::svc::SessionId next_id = 1;
  const auto result = rtw::proptest::run_property(
      "cer_shard_differential", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        const cer::Query query =
            random_query(rng, 2 + rng.uniform(std::uint64_t{8}));
        if (!cer::compile(query).ok()) return std::nullopt;
        const auto word = random_mutated_word(rng, size);

        const rtw::svc::SessionId id = next_id++;
        rtw::svc::WireEvent open;
        open.kind = rtw::svc::WireEvent::Kind::SubmitQuery;
        open.session = id;
        open.profile = query.to_string();
        if (manager.apply(open, {}).admit != rtw::svc::Admit::Accepted)
          return "SubmitQuery refused for " + query.to_string();
        if (!word.empty() &&
            manager.feed_batch(id, word).admit != rtw::svc::Admit::Accepted)
          return "run unexpectedly shed";
        manager.close(id, StreamEnd::EndOfWord);
        manager.drain();

        std::optional<Verdict> verdict;
        for (const auto& report : manager.collect())
          if (report.id == id) verdict = report.verdict;
        if (!verdict) return "no session report collected";
        const bool acc = *verdict == Verdict::Accepting;
        const bool ref = cer::eval_reference(query, word);
        if (acc != ref)
          return "session=" + std::to_string(acc) +
                 " reference=" + std::to_string(ref) + " for query " +
                 query.to_string() + " at " + std::to_string(shards) +
                 " shards";
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe("cer_shard_differential",
                                                      cfg, *result.failure);
  const auto stats = manager.stats();
  EXPECT_GT(stats.query_compiled, 0u);
  EXPECT_EQ(stats.query_rejected, 0u);
}

}  // namespace

TEST(CerShardDifferential, OneShard) { run_shard_differential(1); }
TEST(CerShardDifferential, EightShards) { run_shard_differential(8); }

// ============================================= 6. service-layer bookkeeping

TEST(CerService, CompileLimitRejectionIsARefusedOpenNotACrash) {
  rtw::svc::SessionManager manager(rtw::svc::ShardConfig{},
                                   rtw::svc::IngressConfig{});
  std::string nested;
  for (int i = 0; i < 33; ++i) nested += "within(1){ ";
  nested += "a";
  for (int i = 0; i < 33; ++i) nested += " }";

  rtw::svc::WireEvent open;
  open.kind = rtw::svc::WireEvent::Kind::SubmitQuery;
  open.session = 7;
  open.profile = nested;
  const auto admitted = manager.apply(open, {});
  EXPECT_EQ(admitted.admit, rtw::svc::Admit::Shed);
  // The refusal is cached: sending the text again is refused without a
  // second compile.
  open.session = 8;
  EXPECT_EQ(manager.apply(open, {}).admit, rtw::svc::Admit::Shed);

  const auto stats = manager.stats();
  EXPECT_EQ(stats.query_rejected, 2u);
  EXPECT_EQ(stats.query_compiled, 0u);
  EXPECT_EQ(stats.query_cache_hits, 1u);
  EXPECT_EQ(stats.opened, 0u);
  manager.drain();
}

TEST(CerService, RepeatedTextCompilesOnceAndTimesOnlyRealCompiles) {
  rtw::obs::Tracer tracer;
  rtw::obs::set_sink(&tracer);
  auto& registry = rtw::obs::MetricsRegistry::instance();
  auto& compile_ns = registry.histogram("svc.query.compile_ns", 0, 32);
  auto& hits = registry.counter("svc.query.cache_hits");
  const auto timed_before = compile_ns.snapshot().total();
  const auto hits_before = hits.value();

  rtw::svc::SessionManager manager(rtw::svc::ShardConfig{},
                                   rtw::svc::IngressConfig{});
  for (rtw::svc::SessionId id = 1; id <= 10; ++id)
    EXPECT_NE(manager.build_query_acceptor(id, "within(4){ a ; b }"),
              nullptr);
  for (rtw::svc::SessionId id = 11; id <= 15; ++id)
    EXPECT_EQ(manager.build_query_acceptor(id, "a ;"), nullptr);
  rtw::obs::set_sink(nullptr);

  const auto stats = manager.stats();
  EXPECT_EQ(stats.query_compiled, 10u);
  EXPECT_EQ(stats.query_rejected, 5u);
  EXPECT_EQ(stats.query_cache_hits, 13u);
  EXPECT_EQ(compile_ns.snapshot().total() - timed_before, 2u);
  EXPECT_EQ(hits.value() - hits_before, 13u);
}

TEST(CerService, ConcurrentBuildsCountEveryOpenAndOutliveEviction) {
  rtw::svc::SessionManager manager(rtw::svc::ShardConfig{},
                                   rtw::svc::IngressConfig{});
  // Whitespace padding charges every distinct text more than 1/256 of
  // the cache bound, so the 512 distinct texts below must evict.
  const std::string pad(rtw::svc::SessionManager::kQueryCacheBytes / 256,
                        ' ');
  constexpr int kThreads = 4;
  constexpr int kDistinctPerThread = 2 * 256 / kThreads;
  constexpr int kKept = 8;  ///< acceptors per thread fed to the end
  const std::vector<std::string> repeated = {
      "a ; b", "within(3){ a ; b }", "(a | b)+", "a ; (b | c)+"};
  std::string too_many_clocks;
  for (int i = 0; i < 33; ++i) too_many_clocks += "within(1){ ";
  too_many_clocks += "a";
  for (int i = 0; i < 33; ++i) too_many_clocks += " }";
  std::string too_many_states = "a";
  for (int i = 1; i < 256; ++i) too_many_states += " ; a";
  const std::vector<std::string> over_limit = {too_many_clocks,
                                               too_many_states};
  const auto distinct = [&](int thread, int i) {
    return "within(" + std::to_string(1000 + thread * 1000 + i) +
           "){ (a ; b)+ }" + pad;
  };

  std::atomic<std::uint64_t> built{0}, refused{0};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      struct Kept {
        std::unique_ptr<rtw::core::OnlineAcceptor> acceptor;
        std::string text;
        std::vector<TimedSymbol> word;
      };
      std::vector<Kept> kept;
      std::string& failure = failures[t];
      const auto build = [&](const std::string& text, bool want) {
        auto acc = manager.build_query_acceptor(0, text);
        ((acc != nullptr) ? built : refused).fetch_add(1);
        if ((acc != nullptr) != want && failure.empty())
          failure = "unexpected outcome for " + text.substr(0, 40);
        return acc;
      };
      for (int i = 0; i < kDistinctPerThread; ++i) {
        auto acc = build(distinct(t, i), true);
        if (acc && i < kKept)
          kept.push_back({std::move(acc), distinct(t, i), {}});
        build(repeated[static_cast<std::size_t>(i) % repeated.size()], true);
        if (i % 4 == 0)
          build(over_limit[static_cast<std::size_t>(i / 4) % 2], false);
        // The kept acceptors' entries are evicted while they run.
        for (auto& k : kept) {
          const TimedSymbol e{Symbol::chr(k.word.size() % 2 ? 'b' : 'a'),
                              static_cast<Tick>(i)};
          k.acceptor->feed(e.sym, e.time);
          k.word.push_back(e);
        }
      }
      for (auto& k : kept) {
        const bool accepted = k.acceptor->finish(StreamEnd::EndOfWord) ==
                              Verdict::Accepting;
        if (accepted != cer::eval_reference(*cer::parse(k.text).query,
                                            k.word) &&
            failure.empty())
          failure = "kept acceptor diverged from the reference";
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;

  const auto stats = manager.stats();
  const std::uint64_t calls =
      kThreads * (2 * kDistinctPerThread + kDistinctPerThread / 4);
  EXPECT_EQ(built.load() + refused.load(), calls);
  EXPECT_EQ(stats.query_compiled, built.load());
  EXPECT_EQ(stats.query_rejected, refused.load());
  EXPECT_EQ(refused.load(), kThreads * (kDistinctPerThread / 4u));
  EXPECT_GT(stats.query_cache_hits, 0u);
  // The first distinct text was never touched again, so it was evicted:
  // building it once more is a miss.
  EXPECT_NE(manager.build_query_acceptor(0, distinct(0, 0)), nullptr);
  EXPECT_EQ(manager.stats().query_cache_hits, stats.query_cache_hits);
}

// ========================================================= 7. compile cache

namespace {

cer::CompileCache::Outcome compiled_text(std::string_view text) {
  return cer::compile(*cer::parse(text).query).compiled;
}

}  // namespace

TEST(CerCache, HitsShareOneAutomatonAndRefusalsAreCached) {
  cer::CompileCache cache(1 << 20);
  EXPECT_FALSE(cache.find("a ; b").has_value());
  const auto first = cache.insert("a ; b", compiled_text("a ; b"));
  ASSERT_NE(first, nullptr);
  const auto hit = cache.find("a ; b");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->get(), first.get());
  // A concurrent miss that compiled the same text loses to the entry.
  EXPECT_EQ(cache.insert("a ; b", compiled_text("a ; b")).get(), first.get());

  EXPECT_EQ(cache.insert("a ;", nullptr), nullptr);
  const auto refusal = cache.find("a ;");
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(*refusal, nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), cer::CompileCache::charge("a ; b", first.get()) +
                               cer::CompileCache::charge("a ;", nullptr));
}

TEST(CerCache, EvictsLeastRecentlyUsedAndNeverFreesAHeldAutomaton) {
  // Same-shape texts charge the same, so the bound holds exactly three.
  const std::vector<std::string> texts = {"a ; b", "a ; c", "a ; d", "b ; c"};
  const std::size_t each =
      cer::CompileCache::charge(texts[0], compiled_text(texts[0]).get());
  cer::CompileCache cache(3 * each);
  for (std::size_t i = 0; i < 3; ++i)
    cache.insert(texts[i], compiled_text(texts[i]));
  auto acceptor = cer::make_online_acceptor(*cache.find(texts[1]));
  std::weak_ptr<const cer::CompiledQuery> held = *cache.find(texts[1]);
  // Touch texts[0], then texts[1]: texts[2] is now least recently used.
  ASSERT_TRUE(cache.find(texts[0]).has_value());
  ASSERT_TRUE(cache.find(texts[1]).has_value());
  cache.insert(texts[3], compiled_text(texts[3]));
  EXPECT_LE(cache.bytes(), 3 * each);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.find(texts[2]).has_value());
  EXPECT_TRUE(cache.find(texts[0]).has_value());

  // Evict texts[1] too; its automaton lives on in the acceptor.
  cache.insert("c ; d", compiled_text("c ; d"));
  cache.insert("d ; a", compiled_text("d ; a"));
  EXPECT_FALSE(cache.find(texts[1]).has_value());
  ASSERT_FALSE(held.expired());
  acceptor->feed(Symbol::chr('a'), 0);
  acceptor->feed(Symbol::chr('c'), 1);
  EXPECT_EQ(acceptor->finish(StreamEnd::EndOfWord), Verdict::Accepting);
  acceptor.reset();
  EXPECT_TRUE(held.expired());  // the cache kept no hidden reference

  // An outcome bigger than the whole bound is served but not cached.
  const std::string huge(4 * each, ' ');
  EXPECT_NE(cache.insert("a" + huge, compiled_text("a")), nullptr);
  EXPECT_FALSE(cache.find("a" + huge).has_value());
  EXPECT_EQ(cache.size(), 3u);
}

// ================================================ 8. shared automaton state

namespace {

/// Several live sessions per query text, drawn from a small pool of
/// random queries, fed interleaved in 1-3 symbol runs.  Sessions of one
/// text share one compiled automaton, so any per-session state kept in
/// the shared table would leak between them and break the verdicts.
void run_shared_isolation(unsigned shards) {
  rtw::svc::ShardConfig shard_cfg;
  shard_cfg.count = shards;
  rtw::svc::IngressConfig ingress_cfg;
  ingress_cfg.ring_capacity = 4096;
  rtw::svc::SessionManager manager(shard_cfg, ingress_cfg);

  rtw::proptest::Config cfg;
  cfg.cases = 500;
  cfg.max_size = 24;
  cfg.seed ^= shards * 0x27d4eb2fu;

  rtw::svc::SessionId next_id = 1;
  std::uint64_t opens = 0;
  std::uint64_t shared_opens = 0;  ///< opens after the first of a text
  const auto result = rtw::proptest::run_property(
      "cer_shared_automaton_isolation", cfg,
      [&](rtw::sim::Xoshiro256ss& rng,
          std::size_t size) -> std::optional<std::string> {
        std::vector<cer::Query> pool;
        const std::size_t texts = 2 + rng.uniform(std::uint64_t{2});
        for (std::size_t i = 0; i < texts; ++i) {
          cer::Query q = random_query(rng, 2 + rng.uniform(std::uint64_t{8}));
          if (!cer::compile(q).ok()) return std::nullopt;
          pool.push_back(std::move(q));
        }
        struct Live {
          rtw::svc::SessionId id;
          std::size_t query;
          std::vector<TimedSymbol> word;
          std::size_t fed = 0;
        };
        std::vector<Live> live;
        for (std::size_t q = 0; q < pool.size(); ++q) {
          const std::size_t sessions = 2 + rng.uniform(std::uint64_t{3});
          for (std::size_t k = 0; k < sessions; ++k) {
            rtw::svc::WireEvent open;
            open.kind = rtw::svc::WireEvent::Kind::SubmitQuery;
            open.session = next_id++;
            open.profile = pool[q].to_string();
            if (manager.apply(open, {}).admit != rtw::svc::Admit::Accepted)
              return "SubmitQuery refused for " + open.profile;
            ++opens;
            if (k > 0) ++shared_opens;
            live.push_back({open.session, q, random_mutated_word(rng, size)});
          }
        }
        std::vector<std::size_t> pending;
        for (std::size_t i = 0; i < live.size(); ++i)
          if (!live[i].word.empty()) pending.push_back(i);
        while (!pending.empty()) {
          const std::size_t pick = rng.uniform(pending.size());
          Live& s = live[pending[pick]];
          const std::size_t n = std::min<std::size_t>(
              1 + rng.uniform(std::uint64_t{3}), s.word.size() - s.fed);
          std::vector<TimedSymbol> run(s.word.begin() + s.fed,
                                       s.word.begin() + s.fed + n);
          if (manager.feed_batch(s.id, std::move(run)).admit !=
              rtw::svc::Admit::Accepted)
            return "run unexpectedly shed";
          s.fed += n;
          if (s.fed == s.word.size()) {
            pending[pick] = pending.back();
            pending.pop_back();
          }
        }
        for (const Live& s : live) manager.close(s.id, StreamEnd::EndOfWord);
        manager.drain();

        std::map<rtw::svc::SessionId, Verdict> verdicts;
        for (const auto& report : manager.collect())
          verdicts[report.id] = report.verdict;
        for (const Live& s : live) {
          const auto it = verdicts.find(s.id);
          if (it == verdicts.end()) return "no session report collected";
          const bool acc = it->second == Verdict::Accepting;
          const bool ref = cer::eval_reference(pool[s.query], s.word);
          if (acc != ref)
            return "session=" + std::to_string(acc) +
                   " reference=" + std::to_string(ref) + " for query " +
                   pool[s.query].to_string() + " with " +
                   std::to_string(live.size()) + " live sessions at " +
                   std::to_string(shards) + " shards";
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok()) << rtw::proptest::describe(
      "cer_shared_automaton_isolation", cfg, *result.failure);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.query_compiled, opens);
  EXPECT_EQ(stats.query_rejected, 0u);
  // Every open after the first of its text in a case shared an automaton.
  EXPECT_GE(stats.query_cache_hits, shared_opens);
}

}  // namespace

TEST(CerSharedAutomaton, OneShard) { run_shared_isolation(1); }
TEST(CerSharedAutomaton, EightShards) { run_shared_isolation(8); }
