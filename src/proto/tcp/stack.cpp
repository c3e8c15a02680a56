#include "proto/tcp/stack.hpp"

namespace sm::proto::tcp {

namespace {
using packet::TcpFlags;
}

Stack::Stack(netsim::Host& host) : host_(host) {
  host_.set_tcp_handler(
      [this](const packet::Decoded& d, const Bytes& wire) {
        (void)wire;
        on_packet(d, wire);
      });
}

void Stack::listen(uint16_t port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

void Stack::close_listener(uint16_t port) { listeners_.erase(port); }

Connection* Stack::connect(Ipv4Address dst, uint16_t dst_port,
                           ConnectOptions opts) {
  uint16_t local = opts.local_port ? opts.local_port
                                   : host_.alloc_ephemeral_port();
  opts.local_port = local;
  ConnKey key{local, dst, dst_port};
  auto conn =
      std::unique_ptr<Connection>(new Connection(*this, dst, dst_port,
                                                 local, opts));
  Connection* raw = conn.get();
  connections_[key] = std::move(conn);
  ++stats_.connections_opened;
  raw->start_connect();
  return raw;
}

void Stack::on_packet(const packet::Decoded& d, const Bytes& /*wire*/) {
  if (!d.tcp) return;
  ++stats_.segments_in;
  if (d.tcp->rst()) ++stats_.rst_in;

  // IPv6 segments get a stateless responder rather than full connection
  // state: a SYN to a listening port draws a SYN/ACK, anything else to an
  // unknown 4-tuple draws a RST. That is exactly the surface a
  // reachability probe exercises (its closing RST matches no state and is
  // ignored — never RST a RST), while the stateful machinery stays v4.
  if (d.is_v6()) {
    if (d.tcp->syn() && !d.tcp->ack_flag() &&
        listeners_.count(d.tcp->dst_port) != 0) {
      ++stats_.segments_out;
      uint32_t iss =
          iss_for(common::host_identity(d.src_addr()), d.tcp->src_port);
      host_.send(packet::make_tcp(host_.address_for(d.src_addr()),
                                  d.src_addr(), d.tcp->dst_port,
                                  d.tcp->src_port,
                                  TcpFlags::kSyn | TcpFlags::kAck, iss,
                                  d.tcp->seq + 1));
      return;
    }
    if (!d.tcp->rst() && rst_on_unknown_) send_raw_rst(d);
    return;
  }

  ConnKey key{d.tcp->dst_port, d.ip.src, d.tcp->src_port};
  auto it = connections_.find(key);
  if (it != connections_.end() && !it->second->dead_) {
    it->second->handle_segment(*d.tcp, d.l4_payload);
    return;
  }

  // No connection. A SYN to a listening port opens one.
  if (d.tcp->syn() && !d.tcp->ack_flag()) {
    auto lit = listeners_.find(d.tcp->dst_port);
    if (lit != listeners_.end()) {
      ConnectOptions opts;
      opts.local_port = d.tcp->dst_port;
      if (accept_ttl_policy_) opts.ttl = accept_ttl_policy_(d.ip.src);
      auto conn = std::unique_ptr<Connection>(new Connection(
          *this, d.ip.src, d.tcp->src_port, d.tcp->dst_port, opts));
      Connection* raw = conn.get();
      // Defer to Established: look the handler up again then, in case the
      // listener was closed or replaced while the handshake completed.
      uint16_t port = d.tcp->dst_port;
      raw->on_connect = [this, port](Connection& c) {
        auto handler_it = listeners_.find(port);
        if (handler_it == listeners_.end()) {
          c.abort();
          return;
        }
        ++stats_.connections_accepted;
        handler_it->second(c);
      };
      connections_[key] = std::move(conn);
      raw->start_accept(d.tcp->seq);
      return;
    }
  }

  // Closed port or unknown connection: answer with RST (unless we are a
  // stealth stack), never RST a RST.
  if (!d.tcp->rst() && rst_on_unknown_) send_raw_rst(d);
}

void Stack::send_segment(Connection& c, uint8_t flags, uint32_t seq,
                         uint32_t ack, std::span<const uint8_t> payload) {
  ++stats_.segments_out;
  if (flags & TcpFlags::kRst) ++stats_.rst_out;
  packet::IpOptions ip;
  ip.ttl = c.opts_.ttl;
  host_.send(packet::make_tcp(host_.address(), c.remote_, c.local_port_,
                              c.remote_port_, flags, seq, ack, payload, ip));
}

void Stack::send_raw_rst(const packet::Decoded& d) {
  ++stats_.rst_out;
  ++stats_.segments_out;
  // RFC 793: if the offending segment had ACK, seq = its ack value;
  // otherwise seq 0 with ACK covering the segment.
  uint32_t seq = 0, ack = 0;
  uint8_t flags = TcpFlags::kRst;
  if (d.tcp->ack_flag()) {
    seq = d.tcp->ack;
  } else {
    flags |= TcpFlags::kAck;
    uint32_t seg_len = static_cast<uint32_t>(d.l4_payload.size());
    if (d.tcp->syn()) seg_len += 1;
    if (d.tcp->fin()) seg_len += 1;
    ack = d.tcp->seq + seg_len;
  }
  host_.send(packet::make_tcp(host_.address_for(d.src_addr()), d.src_addr(),
                              d.tcp->dst_port, d.tcp->src_port, flags, seq,
                              ack));
}

void Stack::schedule_retransmit(Connection& c, Duration rto,
                                uint64_t epoch) {
  ConnKey key{c.local_port_, c.remote_, c.remote_port_};
  uint64_t id = c.id_;
  engine().schedule(rto, [this, key, id, epoch]() {
    auto it = connections_.find(key);
    if (it == connections_.end() || it->second->id_ != id) return;
    it->second->on_retransmit_timer(epoch);
  });
}

void Stack::schedule_removal(Connection& c) {
  if (c.dead_) return;
  c.dead_ = true;
  ConnKey key{c.local_port_, c.remote_, c.remote_port_};
  // Deferred so that callbacks further up the stack can finish safely.
  engine().schedule(common::Duration::nanos(0), [this, key]() {
    auto it = connections_.find(key);
    if (it != connections_.end() && it->second->dead_)
      connections_.erase(it);
  });
}

}  // namespace sm::proto::tcp
