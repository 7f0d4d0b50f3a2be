#include "core/maximal_message.h"

#include <algorithm>
#include <unordered_set>

#include "graph/connected_components.h"
#include "util/logging.h"

namespace cem::core {

std::vector<MaximalMessage> ComputeMaximal(
    const Matcher& matcher, const std::vector<data::EntityId>& entities,
    const MatchSet& evidence, const MatchSet& base, size_t* num_conditioned) {
  // Unresolved candidate pairs of C that can possibly entangle with
  // another (the matcher's pruning hook; the default returns all
  // unresolved in-neighborhood candidate pairs).
  const std::vector<data::EntityPair> hypotheses =
      matcher.EntangledPairs(entities, evidence, base);
  if (num_conditioned != nullptr) *num_conditioned = hypotheses.size();

  // One clamped run per hypothesis: what else does assuming p entail?
  std::vector<MatchSet> entailed(hypotheses.size());
  for (size_t i = 0; i < hypotheses.size(); ++i) {
    MatchSet with_p = evidence;
    with_p.Insert(hypotheses[i]);
    entailed[i] = matcher.MatchConditioned(entities, with_p, MatchSet());
  }

  // Mutual-entailment graph; components are the messages.
  std::unordered_map<uint64_t, uint32_t> position;
  for (uint32_t i = 0; i < hypotheses.size(); ++i) {
    position.emplace(data::PairKey(hypotheses[i]), i);
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 0; i < hypotheses.size(); ++i) {
    for (uint64_t key : entailed[i].keys()) {
      auto it = position.find(key);
      if (it == position.end() || it->second <= i) continue;
      const uint32_t j = it->second;
      if (entailed[j].Contains(hypotheses[i])) edges.emplace_back(i, j);
    }
  }
  std::vector<MaximalMessage> out;
  for (const auto& component : graph::ConnectedComponents(
           static_cast<uint32_t>(hypotheses.size()), edges)) {
    if (component.size() < 2) continue;  // Singletons carry no information.
    MaximalMessage message;
    message.reserve(component.size());
    for (uint32_t idx : component) message.push_back(hypotheses[idx]);
    out.push_back(std::move(message));
  }
  return out;
}

uint32_t MaximalMessageSet::Insert(const MaximalMessage& message) {
  // Collect live messages overlapping the new one.
  std::vector<uint32_t> overlapping;
  for (const data::EntityPair& p : message) {
    auto it = owner_.find(data::PairKey(p));
    if (it != owner_.end() && live_[it->second]) {
      overlapping.push_back(it->second);
    }
  }
  std::sort(overlapping.begin(), overlapping.end());
  overlapping.erase(std::unique(overlapping.begin(), overlapping.end()),
                    overlapping.end());

  // Union of the new message and everything it touches.
  std::unordered_set<uint64_t> merged_keys;
  MaximalMessage merged;
  auto absorb = [&](const MaximalMessage& m) {
    for (const data::EntityPair& p : m) {
      if (merged_keys.insert(data::PairKey(p)).second) merged.push_back(p);
    }
  };
  absorb(message);
  for (uint32_t id : overlapping) {
    absorb(messages_[id]);
    live_[id] = false;
    --num_live_;
  }
  std::sort(merged.begin(), merged.end());

  const uint32_t id = static_cast<uint32_t>(messages_.size());
  for (const data::EntityPair& p : merged) owner_[data::PairKey(p)] = id;
  messages_.push_back(std::move(merged));
  live_.push_back(true);
  ++num_live_;
  return id;
}

void MaximalMessageSet::RemoveMessage(uint32_t id) {
  CEM_CHECK(id < live_.size() && live_[id]);
  live_[id] = false;
  --num_live_;
  for (const data::EntityPair& p : messages_[id]) {
    auto it = owner_.find(data::PairKey(p));
    if (it != owner_.end() && it->second == id) owner_.erase(it);
  }
}

std::vector<uint32_t> MaximalMessageSet::FindIntersecting(
    const MatchSet& matches) const {
  std::vector<uint32_t> out;
  for (uint64_t key : matches.keys()) {
    auto it = owner_.find(key);
    if (it != owner_.end() && live_[it->second]) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint32_t> MaximalMessageSet::LiveIds() const {
  std::vector<uint32_t> out;
  for (uint32_t id = 0; id < live_.size(); ++id) {
    if (live_[id]) out.push_back(id);
  }
  return out;
}

const MaximalMessage& MaximalMessageSet::Message(uint32_t id) const {
  CEM_CHECK(id < messages_.size());
  return messages_[id];
}

}  // namespace cem::core
