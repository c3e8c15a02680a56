#include "ids/flow.hpp"

#include <algorithm>

namespace sm::ids {

namespace {
/// Wraparound-safe: a < b.
bool seq_lt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }
}  // namespace

void StreamBuffer::add_segment(uint32_t seq, std::span<const uint8_t> data) {
  if (data.empty() || !base_set_) return;
  uint32_t end = seq + static_cast<uint32_t>(data.size());
  uint32_t buf_end = base_ + static_cast<uint32_t>(buffer_.size());

  if (seq_lt(end, buf_end) || end == buf_end) return;  // wholly duplicate
  if (seq_lt(seq, buf_end)) {
    // Overlaps the contiguous region: keep the new tail.
    size_t skip = buf_end - seq;
    data = data.subspan(skip);
    seq = buf_end;
  }
  if (seq == buf_end) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    merge_pending();
  } else {
    // Gap: stash out of order (bounded by cap across pending). A second
    // segment at an already-pending sequence number is dropped.
    if (pending_bytes_ + data.size() <= cap_ &&
        pending_.try_emplace(seq, data.begin(), data.end()).second)
      pending_bytes_ += data.size();
  }
  // Enforce the cap on the contiguous buffer by trimming the front.
  if (buffer_.size() > cap_) {
    size_t trim = buffer_.size() - cap_;
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(trim));
    base_ += static_cast<uint32_t>(trim);
  }
}

void StreamBuffer::merge_pending() {
  while (!pending_.empty()) {
    uint32_t buf_end = base_ + static_cast<uint32_t>(buffer_.size());
    auto it = pending_.begin();
    uint32_t seq = it->first;
    auto& data = it->second;
    uint32_t end = seq + static_cast<uint32_t>(data.size());
    if (seq_lt(buf_end, seq)) break;  // still a gap
    pending_bytes_ -= data.size();
    if (seq_lt(end, buf_end) || end == buf_end) {
      pending_.erase(it);
      continue;
    }
    size_t skip = buf_end - seq;
    buffer_.insert(buffer_.end(), data.begin() + static_cast<long>(skip),
                   data.end());
    pending_.erase(it);
  }
}

FlowKey FlowKey::from(const packet::Decoded& d) {
  FlowKey k;
  k.proto = d.l4_proto();
  uint16_t sp = d.src_port(), dp = d.dst_port();
  IpAddress src = d.src_addr(), dst = d.dst_addr();
  // Canonical ordering: smaller (ip, port) endpoint is "a".
  if (std::tie(src, sp) <= std::tie(dst, dp)) {
    k.a = src;
    k.a_port = sp;
    k.b = dst;
    k.b_port = dp;
  } else {
    k.a = dst;
    k.a_port = dp;
    k.b = src;
    k.b_port = sp;
  }
  return k;
}

FlowContext FlowTable::update(SimTime now, const packet::Decoded& d,
                              bool buffer_streams) {
  if (!d.tcp && !d.udp) return {};
  FlowKey key = FlowKey::from(d);
  auto [it, inserted] = flows_.try_emplace(key);
  FlowState& st = it->second;
  if (inserted) {
    st.client = d.src_addr();
    st.client_port = d.src_port();
    st.first_seen = now;
    st.to_server_stream = StreamBuffer(stream_cap_);
    st.to_client_stream = StreamBuffer(stream_cap_);
  }
  st.last_seen = now;
  bool to_server =
      d.src_addr() == st.client && d.src_port() == st.client_port;
  if (to_server) {
    ++st.packets_to_server;
    st.bytes_to_server += d.l4_payload.size();
  } else {
    ++st.packets_to_client;
    st.bytes_to_client += d.l4_payload.size();
  }

  if (d.tcp) {
    if (d.tcp->syn() && !d.tcp->ack_flag()) {
      st.syn_seen = true;
      st.to_server_stream.set_base(d.tcp->seq + 1);
    } else if (d.tcp->syn() && d.tcp->ack_flag()) {
      st.synack_seen = true;
      st.to_client_stream.set_base(d.tcp->seq + 1);
    } else if (st.syn_seen && st.synack_seen && d.tcp->ack_flag()) {
      st.established = true;
    }
    if (buffer_streams && !d.l4_payload.empty()) {
      StreamBuffer& stream =
          to_server ? st.to_server_stream : st.to_client_stream;
      // Mid-stream pickup: if we never saw the SYN, anchor at this segment.
      stream.set_base(d.tcp->seq);
      packet::count_copy(packet::CopySite::Stream);
      stream.add_segment(d.tcp->seq, d.l4_payload);
    }
  }
  return FlowContext{&st, to_server};
}

size_t FlowTable::expire(SimTime now) {
  size_t evicted = 0;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.last_seen > idle_timeout_) {
      it = flows_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

size_t FlowTable::buffered_bytes() const {
  size_t total = 0;
  for (const auto& [k, st] : flows_) {
    total += st.to_server_stream.buffered_bytes();
    total += st.to_client_stream.buffered_bytes();
  }
  return total;
}

}  // namespace sm::ids
