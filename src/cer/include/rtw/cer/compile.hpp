#pragma once
/// \file compile.hpp
/// Query -> timed-automaton compilation.
///
/// The compiler lowers a query AST to an epsilon-free nondeterministic
/// timed automaton by a Glushkov-style position construction extended
/// with the clock semantics of automata/clocks.hpp:
///
///   * one automaton state per Sym leaf ("position"), plus a start
///     state; a transition into position p consumes one stream event
///     matching p's predicate (no epsilon moves -- possible because
///     every query construct consumes at least one event);
///   * each `within(t)` node allocates one clock g: g is reset on
///     every transition *entering* the node's subtree and the guard
///     g <= t decorates every transition *internal* to the subtree.
///     Since the last event of a sub-match is consumed by an internal
///     transition (or is the entry event itself, when the sub-match is
///     a single event and the window holds trivially), and time is
///     monotone, guarding every internal step is equivalent to the
///     declarative first-to-last constraint tau_j - tau_i <= t;
///   * guards are evaluated against the valuation advanced to the
///     event's timestamp *before* the transition's resets apply, so a
///     step can simultaneously close one window check and open the
///     next (iteration loop-backs re-entering a `within` body).
///
/// All guards are upper bounds (x <= c), which makes two runtime
/// simplifications sound: valuations are capped at cmax+1 (clocks.hpp
/// capping argument), and a configuration (q, nu) is subsumed by
/// (q, nu') with nu' <= nu pointwise.
///
/// Compilation is total: structural blow-ups (Glushkov is O(n^2) in
/// transitions) are caught by CompileLimits and reported as an error
/// result -- queries come from untrusted clients, so the serving layer
/// turns a limit hit into a refused open, never an allocation storm.
///
/// The compiled automaton is immutable and handed out behind a
/// shared_ptr<const>: every session of one query shares one table, and
/// all per-session state (the configuration set) lives in the acceptor.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtw/automata/clocks.hpp"
#include "rtw/cer/query.hpp"

namespace rtw::cer {

using StateId = std::uint32_t;

/// Structural ceilings applied during compilation.  Defaults are sized
/// for wire-submitted queries (a few hundred bytes of text).  The state
/// count includes the start state, so the default admits 255 leaves.
struct CompileLimits {
  std::uint32_t max_states = 256;
  std::uint32_t max_transitions = 4096;
  std::uint32_t max_clocks = 32;
};

/// The compiled automaton.  States are 0..num_states-1 with 0 the
/// (non-accepting) start state; transitions are grouped by source in
/// CSR form for the runtime's config-set sweep.
struct CompiledQuery {
  struct Transition {
    StateId from = 0;
    StateId to = 0;
    SymbolPred pred;                       ///< event filter
    automata::ClockConstraint guard = automata::ClockConstraint::top();
    std::vector<automata::ClockId> resets;
  };

  std::uint32_t num_states = 0;
  automata::ClockId num_clocks = 0;
  /// cmax + 1: valuations advanced past this value are indistinguishable
  /// to every guard, so the runtime caps them here (finite config space).
  automata::ClockValue clock_cap = 1;
  std::vector<Transition> transitions;   ///< sorted by `from`
  std::vector<std::uint32_t> first_out;  ///< CSR: num_states+1 offsets
  std::vector<bool> accepting;           ///< per state
  Query source;

  /// Transitions leaving `s` as a [begin, end) index pair.
  std::pair<std::uint32_t, std::uint32_t> out_range(StateId s) const {
    return {first_out[s], first_out[s + 1]};
  }
};

/// Outcome of compilation: `ok()` implies `compiled` is set, otherwise
/// `error` says which limit (or structural rule) was violated.
struct CompileResult {
  std::shared_ptr<const CompiledQuery> compiled;
  std::string error;

  bool ok() const noexcept { return compiled != nullptr; }
};

CompileResult compile(const Query& query, CompileLimits limits = {});

}  // namespace rtw::cer
