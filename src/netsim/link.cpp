#include "netsim/link.hpp"

#include <cassert>
#include <utility>

#include "obs/provenance.hpp"

namespace sm::netsim {

void Node::transmit(packet::Packet packet, int port) {
  if (port < 0 || port >= port_count()) return;
  Link* link = link_at(port);
  if (link) link->send_from(this, std::move(packet));
}

void DeliveryPool::deliver_at(common::SimTime when, packet::Packet packet,
                              Node* node, int port) {
  // Arbitrary arrival order (reorder/duplicate impairments, links of
  // different latency) is fine: each delivery pops its own slot.
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = InFlight{std::move(packet), node, port};
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(InFlight{std::move(packet), node, port});
  }
  engine_.schedule_at(when, [pool = this, slot] { pool->arrive(slot); });
}

void DeliveryPool::arrive(uint32_t slot) {
  InFlight& f = slots_[slot];
  Node* node = f.node;
  int port = f.port;
  packet::Packet p = std::move(f.packet);
  free_.push_back(slot);
  node->receive(std::move(p), port);
}

Link::Link(Engine& engine, DeliveryPool& deliveries,
           const LinkConfig& config, uint64_t seed)
    : engine_(engine),
      deliveries_(deliveries),
      latency_(config.latency),
      bandwidth_bps_(config.bandwidth_bps),
      model_(config.impaired()
                 ? std::make_unique<ImpairmentModel>(
                       config.loss_rate, config.impairment, seed)
                 : nullptr) {}

std::pair<int, int> Link::connect(Node* a, Node* b) {
  a_.node = a;
  a_.port = a->attach_link(this);
  b_.node = b;
  b_.port = b->attach_link(this);
  return {a_.port, b_.port};
}

Link::Endpoint& Link::endpoint_for(Node* n) {
  assert(n == a_.node || n == b_.node);
  return n == a_.node ? a_ : b_;
}

Link::Endpoint& Link::peer_of(Node* n) {
  assert(n == a_.node || n == b_.node);
  return n == a_.node ? b_ : a_;
}

void Link::send_from(Node* from, packet::Packet packet) {
  Endpoint& tx = endpoint_for(from);
  Endpoint& rx = peer_of(from);
  ++stats_.sent;

  // Every wire packet passes this choke point exactly once per hop, so
  // this is where provenance identity is minted: the first link assigns
  // the PacketSent event (cause = the ambient ScopedCause, e.g. a probe
  // attempt or a censor injection); later hops reuse the id.
  obs::ProvenanceGraph* prov = engine_.provenance();
  if (prov != nullptr && packet.prov_id() == 0) {
    packet.set_prov_id(prov->record_packet(engine_.now(), packet.data().data(),
                                           packet.size()));
  }

  // A clean link has no model and its packets keep the default fate:
  // delivered once, unaltered, in order.
  ImpairmentModel::Decision d;
  if (model_) d = model_->apply(engine_.now(), packet.data());
  if (prov != nullptr && d.drop != ImpairmentModel::DropCause::None) {
    const char* why = "loss";
    switch (d.drop) {
      case ImpairmentModel::DropCause::IidLoss: why = "iid-loss"; break;
      case ImpairmentModel::DropCause::BurstLoss: why = "burst-loss"; break;
      case ImpairmentModel::DropCause::LinkDown: why = "link-down"; break;
      case ImpairmentModel::DropCause::Corrupt: why = "corrupt-drop"; break;
      case ImpairmentModel::DropCause::None: break;
    }
    prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                 packet.prov_id(), why);
  }
  switch (d.drop) {
    case ImpairmentModel::DropCause::IidLoss: ++stats_.dropped_loss; return;
    case ImpairmentModel::DropCause::BurstLoss:
      ++stats_.dropped_burst;
      return;
    case ImpairmentModel::DropCause::LinkDown: ++stats_.dropped_down; return;
    case ImpairmentModel::DropCause::Corrupt:
      ++stats_.dropped_corrupt;
      return;
    case ImpairmentModel::DropCause::None: break;
  }
  if (d.corrupted) {
    ++stats_.corrupted;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "corrupted");
    }
  }

  common::SimTime depart = engine_.now();
  if (bandwidth_bps_ > 0) {
    // FIFO: a packet cannot start serializing until the previous one on
    // this direction finished.
    if (tx.busy_until > depart) depart = tx.busy_until;
    auto bits = static_cast<uint64_t>(packet.size()) * 8;
    auto ser_nanos =
        static_cast<int64_t>(bits * 1'000'000'000ULL / bandwidth_bps_);
    depart = depart + common::Duration(ser_nanos);
    tx.busy_until = depart;
  }
  common::SimTime arrive = depart + latency_;
  if (d.extra_delay.count() > 0) {
    ++stats_.reordered;
    arrive = arrive + d.extra_delay;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "reorder");
    }
  }
  if (d.duplicate) {
    ++stats_.duplicated;
    ++stats_.delivered;
    // The duplicate needs its own owner; the only impairment-forced copy
    // (corruption mutates the uniquely-owned buffer in place). It keeps
    // the original's provenance id: both deliveries trace to one send.
    packet::count_copy(packet::CopySite::Impairment);
    if (prov != nullptr) {
      prov->record(obs::ProvKind::Impair, engine_.now(), packet.prov_id(),
                   packet.prov_id(), "duplicate");
    }
    deliveries_.deliver_at(arrive + d.duplicate_lag, packet, rx.node,
                           rx.port);  // copy
  }
  ++stats_.delivered;
  deliveries_.deliver_at(arrive, std::move(packet), rx.node, rx.port);
}

}  // namespace sm::netsim
