#include "rtw/cer/acceptor.hpp"

#include <algorithm>
#include <utility>

#include "rtw/core/error.hpp"

namespace rtw::cer {

namespace {

/// nu' subsumes nu when nu' <= nu pointwise: every guard is an upper
/// bound, so anything nu can still do, nu' can too.
bool dominates(const automata::ClockValuation& lo,
               const automata::ClockValuation& hi) {
  for (std::size_t i = 0; i < lo.size(); ++i) {
    if (lo[i] > hi[i]) return false;
  }
  return true;
}

}  // namespace

CerAcceptor::CerAcceptor(std::shared_ptr<const CompiledQuery> compiled)
    : compiled_(std::move(compiled)) {
  if (!compiled_) throw core::ModelError("CerAcceptor: null automaton");
  reset();
}

void CerAcceptor::reset() {
  configs_.clear();
  configs_.push_back(
      Config{0, automata::ClockValuation(compiled_->num_clocks, 0)});
  next_.clear();
  verdict_ = core::Verdict::Undetermined;
  result_ = {};
  last_time_ = 0;
  any_fed_ = false;
  finished_ = false;
}

core::Verdict CerAcceptor::feed(core::Symbol symbol, core::Tick at) {
  if (finished_ || core::final_verdict(verdict_)) return verdict_;
  if (any_fed_ && at < last_time_) {
    throw core::ModelError("CerAcceptor: non-monotone feed time");
  }
  step(symbol, at);
  last_time_ = at;
  any_fed_ = true;
  ++result_.symbols_consumed;
  result_.ticks = at;
  if (configs_.empty()) {
    // No configuration survives: no extension of the stream is in the
    // language, the strongest statement an anchored matcher can make.
    verdict_ = core::Verdict::Rejecting;
    result_.accepted = false;
    result_.exact = true;
  } else if (any_accepting()) {
    ++result_.f_count;
    if (!result_.first_f) result_.first_f = at;
  }
  return verdict_;
}

void CerAcceptor::step(core::Symbol symbol, core::Tick at) {
  const core::Tick elapsed = any_fed_ ? at - last_time_ : 0;
  next_.clear();
  for (const Config& c : configs_) {
    // Clock values are time since reset; the first event's elapsed time
    // is immaterial because every guard's clock is reset on some
    // earlier transition of the same run.
    automata::ClockValuation nu =
        automata::advance(c.clocks, elapsed, compiled_->clock_cap);
    const auto [begin, end] = compiled_->out_range(c.state);
    for (std::uint32_t i = begin; i < end; ++i) {
      const auto& t = compiled_->transitions[i];
      if (!t.pred.matches(symbol)) continue;
      if (!t.guard.satisfied(nu)) continue;
      Config succ{t.to, automata::reset(nu, t.resets)};
      bool subsumed = false;
      for (Config& existing : next_) {
        if (existing.state != succ.state) continue;
        if (dominates(existing.clocks, succ.clocks)) {
          subsumed = true;
          break;
        }
        if (dominates(succ.clocks, existing.clocks)) {
          existing.clocks = succ.clocks;
          subsumed = true;  // replaced in place
          break;
        }
      }
      if (!subsumed) next_.push_back(std::move(succ));
    }
  }
  configs_.swap(next_);
}

bool CerAcceptor::any_accepting() const {
  return std::any_of(configs_.begin(), configs_.end(), [&](const Config& c) {
    return compiled_->accepting[c.state];
  });
}

core::Verdict CerAcceptor::finish(core::StreamEnd end) {
  if (finished_) return verdict_;
  finished_ = true;
  if (core::final_verdict(verdict_)) return verdict_;
  const bool accepted = any_accepting();
  verdict_ = accepted ? core::Verdict::Accepting : core::Verdict::Rejecting;
  result_.accepted = accepted;
  // A truncated stream settles over the visible prefix only: the full
  // word could extend past the cut, so the verdict is heuristic.
  result_.exact = (end == core::StreamEnd::EndOfWord);
  return verdict_;
}

std::string CerAcceptor::name() const {
  std::string text = compiled_->source.to_string();
  constexpr std::size_t kMax = 48;
  if (text.size() > kMax) {
    text.resize(kMax - 3);
    text += "...";
  }
  return "cer:" + text;
}

std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    const Query& query, CompileLimits limits) {
  CompileResult r = compile(query, limits);
  if (!r.ok()) return nullptr;
  return std::make_unique<CerAcceptor>(std::move(r.compiled));
}

std::unique_ptr<core::OnlineAcceptor> make_online_acceptor(
    std::shared_ptr<const CompiledQuery> compiled) {
  return std::make_unique<CerAcceptor>(std::move(compiled));
}

}  // namespace rtw::cer
