#pragma once
/// \file stats.hpp
/// The benchmark's own arithmetic, kept free of any rtω dependency so
/// selftest.cpp can pin it down: percentiles with the sample-count rule,
/// the median of per-window rates, failure counting, and span self time.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace servbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it.  Empty input yields 0.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1 ? 0
               : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[idx];
}

/// Samples strictly above the q-th percentile position (n - ceil(q*n)).
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return n - std::min(n, static_cast<std::size_t>(rank));
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// One completed unit of work: when it finished and how much it counted.
struct Completion {
  std::uint64_t at_ns = 0;
  double amount = 0;
};

/// Rates (amount per second) over the whole windows of `window_ns` that
/// fit in [begin_ns, end_ns).  A partial trailing window is dropped so
/// every rate covers the same span.
inline std::vector<double> window_rates(const std::vector<Completion>& done,
                                        std::uint64_t begin_ns,
                                        std::uint64_t end_ns,
                                        std::uint64_t window_ns) {
  if (window_ns == 0 || end_ns <= begin_ns) return {};
  const std::size_t windows = (end_ns - begin_ns) / window_ns;
  std::vector<double> sums(windows, 0.0);
  for (const auto& c : done) {
    if (c.at_ns < begin_ns) continue;
    const std::size_t w = (c.at_ns - begin_ns) / window_ns;
    if (w < windows) sums[w] += c.amount;
  }
  const double seconds = static_cast<double>(window_ns) / 1e9;
  for (auto& s : sums) s /= seconds;
  return sums;
}

/// Each whole window's q-th percentile of `amount` (samples keyed by
/// `at_ns`) over [begin_ns, end_ns).  `min_samples` receives the smallest
/// per-window sample count, so the caller can hold every window to the
/// ten-beyond rule.
inline std::vector<double> window_percentiles(
    const std::vector<Completion>& samples, std::uint64_t begin_ns,
    std::uint64_t end_ns, std::uint64_t window_ns, double q,
    std::size_t* min_samples = nullptr) {
  if (min_samples) *min_samples = 0;
  if (window_ns == 0 || end_ns <= begin_ns) return {};
  const std::size_t windows = (end_ns - begin_ns) / window_ns;
  std::vector<std::vector<double>> bins(windows);
  for (const auto& s : samples) {
    if (s.at_ns < begin_ns) continue;
    const std::size_t w = (s.at_ns - begin_ns) / window_ns;
    if (w < windows) bins[w].push_back(s.amount);
  }
  std::vector<double> out;
  std::size_t least = windows ? SIZE_MAX : 0;
  for (auto& b : bins) {
    least = std::min(least, b.size());
    out.push_back(percentile(std::move(b), q));
  }
  if (min_samples) *min_samples = least;
  return out;
}

/// What happened to one attempted session.
enum class Outcome : std::uint8_t {
  Ok,       ///< verdict arrived and matched the expectation
  Wrong,    ///< verdict arrived and did not match
  Missing,  ///< no verdict arrived
  Refused,  ///< the open was refused
  Shed,     ///< at least one of its symbols was shed
};

/// Failure tally: every attempted session lands in exactly one bucket and
/// everything but Ok counts as failed.  A shed session is a failure even
/// when its (short-fed) verdict happens to match.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t wrong = 0;
  std::uint64_t missing = 0;
  std::uint64_t refused = 0;
  std::uint64_t shed = 0;

  void record(Outcome o) {
    ++attempted;
    switch (o) {
      case Outcome::Ok: ++ok; break;
      case Outcome::Wrong: ++wrong; break;
      case Outcome::Missing: ++missing; break;
      case Outcome::Refused: ++refused; break;
      case Outcome::Shed: ++shed; break;
    }
  }
  std::uint64_t failed() const { return attempted - ok; }
  double failed_frac() const {
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0;
  }
  void add(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    wrong += o.wrong;
    missing += o.missing;
    refused += o.refused;
    shed += o.shed;
  }
};

/// The outcome of a session from what the benchmark observed about it.
inline Outcome classify(bool refused, bool shed, bool arrived, bool matched) {
  if (refused) return Outcome::Refused;
  if (shed) return Outcome::Shed;
  if (!arrived) return Outcome::Missing;
  return matched ? Outcome::Ok : Outcome::Wrong;
}

/// In-memory span recorder for the traced run.  Spans nest on one thread
/// (the generator's); each closed span adds its duration to its name's
/// total and to its parent's child time, so a name's self time is its
/// total minus the part its child spans cover.  The first `keep` spans are
/// retained verbatim for the trace file.
class Spans {
public:
  struct Record {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index into kept records, -1 = root/not kept
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t session = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t self_ns() const {
      return total_ns > child_ns ? total_ns - child_ns : 0;
    }
  };

  explicit Spans(std::size_t keep = 0) : keep_(keep) {}

  std::uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    totals_.emplace_back();
    ids_.emplace(name, id);
    return id;
  }

  void begin(std::uint32_t name, std::uint64_t now_ns,
             std::uint64_t session = 0) {
    Open o;
    o.name = name;
    o.start_ns = now_ns;
    o.session = session;
    if (kept_.size() < keep_) {
      o.kept = static_cast<std::int32_t>(kept_.size());
      Record r;
      r.name = name;
      r.parent = stack_.empty() ? -1 : stack_.back().kept;
      r.start_ns = now_ns;
      r.session = session;
      kept_.push_back(r);
    }
    stack_.push_back(o);
  }

  void end(std::uint64_t now_ns) {
    if (stack_.empty()) return;
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = now_ns > o.start_ns ? now_ns - o.start_ns : 0;
    Totals& t = totals_[o.name];
    ++t.count;
    t.total_ns += dur;
    t.child_ns += o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.kept >= 0) kept_[static_cast<std::size_t>(o.kept)].end_ns = now_ns;
  }

  const Totals& totals(std::uint32_t name) const { return totals_[name]; }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Record>& kept() const { return kept_; }

private:
  struct Open {
    std::uint32_t name = 0;
    std::int32_t kept = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t session = 0;
  };
  std::size_t keep_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Record> kept_;
};

}  // namespace servbench
