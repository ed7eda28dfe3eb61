#include "chord/chord_ring.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace peertrack::chord {

ChordRing::ChordRing(sim::Network& network, Options options)
    : network_(network), options_(options) {}

ChordNode& ChordRing::AddNode(const std::string& address) {
  nodes_.push_back(std::make_unique<ChordNode>(network_, address, options_.node));
  return *nodes_.back();
}

std::size_t ChordRing::AliveCount() const noexcept {
  std::size_t count = 0;
  for (const auto& node : nodes_) {
    if (node->Alive()) ++count;
  }
  return count;
}

ChordNode* ChordRing::FindByActor(sim::ActorId actor) noexcept {
  for (auto& node : nodes_) {
    if (node->Self().actor == actor) return node.get();
  }
  return nullptr;
}

std::vector<NodeRef> ChordRing::SortedAlive() const {
  std::vector<NodeRef> refs;
  refs.reserve(nodes_.size());
  const bool any_alive = AliveCount() > 0;
  for (const auto& node : nodes_) {
    // During OracleBootstrap no node is alive yet; include everything then.
    if (node->Alive() || !any_alive) refs.push_back(node->Self());
  }
  std::sort(refs.begin(), refs.end(),
            [](const NodeRef& a, const NodeRef& b) { return a.id < b.id; });
  return refs;
}

NodeRef ChordRing::ExpectedSuccessor(const Key& key) const {
  const auto refs = SortedAlive();
  if (refs.empty()) return NodeRef{};
  const auto it = std::lower_bound(
      refs.begin(), refs.end(), key,
      [](const NodeRef& node, const Key& k) { return node.id < k; });
  return it == refs.end() ? refs.front() : *it;
}

ChordNode* ChordRing::ExpectedOwner(const Key& key) {
  const NodeRef ref = ExpectedSuccessor(key);
  return ref.Valid() ? FindByActor(ref.actor) : nullptr;
}

void ChordRing::OracleBootstrap() {
  // Wire the alive membership (everything on first bootstrap, when no node
  // is alive yet) into a perfectly converged ring.
  const std::vector<NodeRef> refs = SortedAlive();
  const std::size_t n = refs.size();
  if (n == 0) return;

  auto successor_of = [&](const Key& key) -> const NodeRef& {
    const auto it = std::lower_bound(
        refs.begin(), refs.end(), key,
        [](const NodeRef& node, const Key& k) { return node.id < k; });
    return it == refs.end() ? refs.front() : *it;
  };

  for (std::size_t i = 0; i < n; ++i) {
    ChordNode* node = FindByActor(refs[i].actor);
    node->MarkAlive();
    const NodeRef& predecessor = refs[(i + n - 1) % n];

    std::vector<NodeRef> successor_list;
    const std::size_t list_size =
        std::min(options_.node.successor_list_size, n > 1 ? n - 1 : 0);
    for (std::size_t j = 1; j <= list_size; ++j) {
      successor_list.push_back(refs[(i + j) % n]);
    }
    node->OracleWire(n > 1 ? std::optional<NodeRef>(predecessor) : std::nullopt,
                     std::move(successor_list));
    for (unsigned k = 0; k < FingerTable::kBits; ++k) {
      node->OracleSetFinger(k, successor_of(node->fingers().Start(k)));
    }
  }
  // Every node was rewired at once: one global membership delta marks the
  // whole ring truth as changed (GrowNetwork re-bootstraps live).
  obs::FlightRecorder& log = network_.delta_bus();
  if (log.Active()) {
    log.Publish(obs::StateDelta::Global(obs::RecEvent::kMembership));
  }
}

void ChordRing::ProtocolBootstrap(double settle_ms) {
  if (nodes_.empty()) return;
  auto& simulator = network_.simulator();

  nodes_.front()->CreateRing();
  const NodeRef bootstrap = nodes_.front()->Self();

  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    bool joined = false;
    nodes_[i]->Join(bootstrap, [&joined] { joined = true; });
    // Drive the simulator until this join settles; joins are sequential so
    // each new node lands on a consistent ring.
    std::uint64_t guard = 0;
    while (!joined && simulator.Step()) {
      if (++guard > 1'000'000) {
        util::LogError("protocol join of node {} did not complete", i);
        break;
      }
    }
  }
  for (auto& node : nodes_) {
    node->StartMaintenance(options_.stabilize_every_ms, options_.fix_fingers_every_ms);
  }
  simulator.RunUntil(simulator.Now() + settle_ms);
}

ChordNode& ChordRing::ProtocolJoin(const std::string& address) {
  ChordNode& node = AddNode(address);
  NodeRef bootstrap;
  for (const auto& existing : nodes_) {
    if (existing.get() != &node && existing->Alive()) {
      bootstrap = existing->Self();
      break;
    }
  }
  if (!bootstrap.Valid()) {
    node.CreateRing();
  } else {
    node.Join(bootstrap);
  }
  node.StartMaintenance(options_.stabilize_every_ms, options_.fix_fingers_every_ms);
  return node;
}

bool ChordRing::IsConverged() const {
  const auto refs = SortedAlive();
  const std::size_t n = refs.size();
  if (n < 2) return true;
  for (std::size_t i = 0; i < n; ++i) {
    const ChordNode* node = nullptr;
    for (const auto& candidate : nodes_) {
      if (candidate->Self().actor == refs[i].actor) {
        node = candidate.get();
        break;
      }
    }
    if (node == nullptr || !node->Alive()) return false;
    const NodeRef& expected_successor = refs[(i + 1) % n];
    const NodeRef& expected_predecessor = refs[(i + n - 1) % n];
    if (node->Successor().actor != expected_successor.actor) return false;
    if (!node->Predecessor() ||
        node->Predecessor()->actor != expected_predecessor.actor) {
      return false;
    }
  }
  return true;
}

}  // namespace peertrack::chord
