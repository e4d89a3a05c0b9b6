#pragma once
/// \file acceptor.hpp
/// Compiled queries as core::OnlineAcceptor sessions.
///
/// CerAcceptor runs the compiled automaton as a subset ("config set")
/// simulation: a configuration is a state plus a capped clock
/// valuation; feeding an event advances every configuration's clocks
/// to the event's timestamp, fires all transitions whose predicate and
/// guard hold (guards checked before the transition's resets apply),
/// and dedups the successor set with pointwise-dominance subsumption
/// (sound because every guard is an upper bound).
///
/// Matching is anchored: the stream as a whole must be a word of the
/// query's language.  The verdict therefore stays Undetermined until
/// the stream finishes -- with one exception: an empty configuration
/// set means no extension can ever match, which locks Rejecting with
/// exact = true.  finish(EndOfWord) settles Accepting/Rejecting with
/// exact = true; finish(Truncated) settles the same verdict over the
/// visible prefix with exact = false (the full word could differ).
///
/// RunResult mirrors Definition 3.4 bookkeeping: f_count counts feeds
/// after which some accepting configuration existed (the ticks where a
/// hypothetical output tape would carry f), first_f the first such
/// timestamp.
///
/// The compiled automaton is shared, read-only, by every acceptor built
/// from it; the acceptor owns only its configuration set and verdict
/// bookkeeping, so one compile serves any number of live sessions.

#include <memory>

#include "rtw/cer/compile.hpp"
#include "rtw/core/online.hpp"

namespace rtw::cer {

class CerAcceptor final : public core::OnlineAcceptor {
public:
  /// `compiled` must be non-null.
  explicit CerAcceptor(std::shared_ptr<const CompiledQuery> compiled);

  core::Verdict feed(core::Symbol symbol, core::Tick at) override;
  using core::OnlineAcceptor::feed;
  core::Verdict finish(core::StreamEnd end) override;
  core::Verdict verdict() const override { return verdict_; }
  const core::RunResult& result() const override { return result_; }
  void reset() override;
  std::string name() const override;

  const CompiledQuery& compiled() const noexcept { return *compiled_; }
  /// Live configurations (post-dedup) -- exposed for tests/bench.
  std::size_t config_count() const noexcept { return configs_.size(); }

private:
  struct Config {
    StateId state = 0;
    automata::ClockValuation clocks;
  };

  void step(core::Symbol symbol, core::Tick at);
  bool any_accepting() const;

  std::shared_ptr<const CompiledQuery> compiled_;
  std::vector<Config> configs_;
  std::vector<Config> next_;  ///< scratch, reused across feeds
  core::Verdict verdict_ = core::Verdict::Undetermined;
  core::RunResult result_;
  core::Tick last_time_ = 0;
  bool any_fed_ = false;
  bool finished_ = false;
};

/// Compiles `query` and wraps it; returns nullptr when a CompileLimits
/// ceiling is hit (callers that need the reason use compile() directly).
std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    const Query& query, CompileLimits limits = {});

/// Wraps an already-compiled query, sharing it (no failure path).
std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    std::shared_ptr<const CompiledQuery> compiled);

}  // namespace rtw::cer
