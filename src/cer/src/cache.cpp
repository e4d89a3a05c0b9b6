#include "rtw/cer/cache.hpp"

namespace rtw::cer {

namespace {

/// List node, hash node and string header of one entry, rounded up.
constexpr std::size_t kEntryOverhead = 128;

}  // namespace

std::size_t CompileCache::charge(std::string_view text,
                                 const CompiledQuery* compiled) {
  std::size_t bytes = kEntryOverhead + text.size();
  if (!compiled) return bytes;
  bytes += sizeof(CompiledQuery) +
           compiled->transitions.size() * sizeof(CompiledQuery::Transition) +
           compiled->first_out.size() * sizeof(std::uint32_t) +
           compiled->accepting.size() / 8;
  for (const auto& t : compiled->transitions)
    bytes += t.resets.size() * sizeof(automata::ClockId);
  return bytes;
}

std::optional<CompileCache::Outcome> CompileCache::find(
    std::string_view text) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(text);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->compiled;
}

CompileCache::Outcome CompileCache::insert(std::string_view text,
                                           Outcome compiled) {
  const std::size_t cost = charge(text, compiled.get());
  std::lock_guard lock(mutex_);
  if (const auto it = index_.find(text); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->compiled;
  }
  if (cost > max_bytes_) return compiled;
  lru_.push_front(Entry{std::string(text), compiled, cost});
  index_.emplace(lru_.front().text, lru_.begin());
  bytes_ += cost;
  // The new entry fits the bound on its own, so eviction stops before
  // reaching it.
  while (bytes_ > max_bytes_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.text);
    lru_.pop_back();
  }
  return compiled;
}

std::size_t CompileCache::bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

std::size_t CompileCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

}  // namespace rtw::cer
