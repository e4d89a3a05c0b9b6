#include "rtw/cer/compile.hpp"

#include <algorithm>
#include <utility>

namespace rtw::cer {

namespace {

using automata::ClockConstraint;
using automata::ClockId;

/// A half-transition into a fragment: the target position plus the
/// guard/resets accumulated from enclosing `within` nodes.  The source
/// state is bound later (by Seq gluing, Iter loop-backs, or the final
/// start-state binding).
struct Entry {
  StateId pos = 0;
  ClockConstraint guard = ClockConstraint::top();
  std::vector<ClockId> resets;
};

/// Glushkov fragment for one subtree.
struct Frag {
  std::vector<Entry> entries;   ///< ways to consume the first event
  std::vector<StateId> exits;   ///< positions a full sub-match can end in
};

class Compiler {
public:
  explicit Compiler(CompileLimits limits) : limits_(limits) {}

  CompileResult run(const Query& query) {
    if (query.empty()) return fail("empty query");
    preds_.push_back({});  // start state occupies position 0
    Frag root = build(query.root());
    if (!error_.empty()) return fail(error_);
    // Bind the root fragment's entries to the start state.
    for (const Entry& e : root.entries) add_transition(0, e);
    if (!error_.empty()) return fail(error_);

    auto out = std::make_shared<CompiledQuery>();
    out->num_states = static_cast<std::uint32_t>(preds_.size());
    out->num_clocks = next_clock_;
    out->clock_cap = cmax_ + 1;
    out->accepting.assign(out->num_states, false);
    for (StateId s : root.exits) out->accepting[s] = true;
    std::stable_sort(transitions_.begin(), transitions_.end(),
                     [](const CompiledQuery::Transition& a,
                        const CompiledQuery::Transition& b) {
                       return a.from < b.from;
                     });
    out->first_out.assign(out->num_states + 1, 0);
    for (const auto& t : transitions_) ++out->first_out[t.from + 1];
    for (std::uint32_t s = 0; s < out->num_states; ++s)
      out->first_out[s + 1] += out->first_out[s];
    out->transitions = std::move(transitions_);
    out->source = query;
    CompileResult r;
    r.compiled = std::move(out);
    return r;
  }

private:
  static CompileResult fail(std::string msg) {
    CompileResult r;
    r.error = std::move(msg);
    return r;
  }

  Frag build(const NodeRef& node) {
    if (!error_.empty() || !node) return {};
    switch (node->kind) {
      case Node::Kind::Sym: {
        // preds_ already holds the start state, so this counts it too.
        if (preds_.size() >= limits_.max_states) {
          error_ = "query too large (state limit)";
          return {};
        }
        const StateId pos = static_cast<StateId>(preds_.size());
        preds_.push_back(node->pred);
        Frag f;
        f.entries.push_back(Entry{pos, ClockConstraint::top(), {}});
        f.exits.push_back(pos);
        return f;
      }
      case Node::Kind::Seq: {
        Frag a = build(node->left);
        Frag b = build(node->right);
        if (!error_.empty()) return {};
        // Glue: every way A can end continues into every way B starts.
        for (StateId e : a.exits)
          for (const Entry& en : b.entries) add_transition(e, en);
        a.exits = std::move(b.exits);
        return a;
      }
      case Node::Kind::Alt: {
        Frag a = build(node->left);
        Frag b = build(node->right);
        if (!error_.empty()) return {};
        a.entries.insert(a.entries.end(),
                         std::make_move_iterator(b.entries.begin()),
                         std::make_move_iterator(b.entries.end()));
        a.exits.insert(a.exits.end(), b.exits.begin(), b.exits.end());
        return a;
      }
      case Node::Kind::Iter: {
        Frag a = build(node->left);
        if (!error_.empty()) return {};
        // Loop-backs: a finished iteration starts the body again.  The
        // entry copies carry the body's `within` resets, so each pass
        // re-opens its windows.
        for (StateId e : a.exits)
          for (const Entry& en : a.entries) add_transition(e, en);
        return a;
      }
      case Node::Kind::Within: {
        if (next_clock_ >= limits_.max_clocks) {
          error_ = "query too large (clock limit)";
          return {};
        }
        const ClockId g = next_clock_++;
        cmax_ = std::max(cmax_, node->window);
        const std::size_t tr_before = transitions_.size();
        Frag a = build(node->left);
        if (!error_.empty()) return {};
        // Guard every transition internal to the subtree (those created
        // while building it) and reset g on every way in.
        const ClockConstraint guard = ClockConstraint::le(g, node->window);
        for (std::size_t i = tr_before; i < transitions_.size(); ++i) {
          transitions_[i].guard = transitions_[i].guard && guard;
        }
        for (Entry& en : a.entries) {
          en.resets.push_back(g);
        }
        return a;
      }
    }
    return {};
  }

  void add_transition(StateId from, const Entry& entry) {
    if (!error_.empty()) return;
    if (transitions_.size() >= limits_.max_transitions) {
      error_ = "query too large (transition limit)";
      return;
    }
    CompiledQuery::Transition t;
    t.from = from;
    t.to = entry.pos;
    t.pred = preds_[entry.pos];
    t.guard = entry.guard;
    t.resets = entry.resets;
    transitions_.push_back(std::move(t));
  }

  CompileLimits limits_;
  std::vector<SymbolPred> preds_;  ///< per position; [0] unused (start)
  std::vector<CompiledQuery::Transition> transitions_;
  ClockId next_clock_ = 0;
  automata::ClockValue cmax_ = 0;
  std::string error_;
};

}  // namespace

CompileResult compile(const Query& query, CompileLimits limits) {
  return Compiler(limits).run(query);
}

}  // namespace rtw::cer
