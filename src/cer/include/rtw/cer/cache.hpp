#pragma once
/// \file cache.hpp
/// Compile-once cache: query text -> shared immutable automaton.
///
/// A standing query is typically submitted by many sessions, and
/// compiling it per open repeats the parse and the Glushkov construction
/// for an identical table.  CompileCache maps the exact query text to the
/// outcome of compiling it: the shared CompiledQuery, or a cached refusal
/// (null), so a text that fails to parse or busts CompileLimits costs one
/// compile until it is evicted, not one per open.
///
/// The cache is bounded by charged size, not by entry count: an entry is
/// charged its text, its transition table and a fixed per-entry overhead
/// (see charge()), and least-recently-used entries are evicted once the
/// total passes the bound.  Eviction only drops the cache's reference:
/// every acceptor holds its automaton through its own shared_ptr, so an
/// evicted table lives until the last session using it closes.
///
/// All methods are thread-safe behind one mutex; a hit costs one hash of
/// the text and one list splice.

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rtw/cer/compile.hpp"

namespace rtw::cer {

class CompileCache {
public:
  using Outcome = std::shared_ptr<const CompiledQuery>;  ///< null: refused

  explicit CompileCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  CompileCache(const CompileCache&) = delete;
  CompileCache& operator=(const CompileCache&) = delete;

  /// The cached outcome for `text`, or nullopt on a miss.  A hit makes
  /// the entry the most recently used.
  std::optional<Outcome> find(std::string_view text);

  /// Records the outcome of compiling `text` and returns the outcome the
  /// caller should use: when another thread cached `text` first, its
  /// entry wins, so every session of one text shares one automaton.  An
  /// outcome charged more than the whole bound is returned uncached.
  Outcome insert(std::string_view text, Outcome compiled);

  std::size_t bytes() const;  ///< current charged size
  std::size_t size() const;   ///< current entry count

  /// What an entry for `text` with outcome `compiled` is charged: the
  /// text, the automaton's tables and a fixed bookkeeping overhead.
  static std::size_t charge(std::string_view text,
                            const CompiledQuery* compiled);

private:
  struct Entry {
    std::string text;
    Outcome compiled;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Entry>;  ///< most recently used first

  mutable std::mutex mutex_;
  Lru lru_;
  /// Keys view the `text` of the list node they point at.
  std::unordered_map<std::string_view, Lru::iterator> index_;
  std::size_t bytes_ = 0;
  const std::size_t max_bytes_;
};

}  // namespace rtw::cer
