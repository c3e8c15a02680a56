#include "obs/provenance.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/strings.hpp"

namespace sm::obs {

namespace {

/// Appends sim nanoseconds as trace_event microseconds. Three decimals
/// keep full nanosecond precision and render deterministically.
void append_micros(std::string& out, int64_t nanos) {
  char buf[48];
  out.append(buf, static_cast<size_t>(std::snprintf(
                      buf, sizeof buf, "%lld.%03lld",
                      static_cast<long long>(nanos / 1000),
                      static_cast<long long>(nanos % 1000))));
}

/// Appends "key":"value" with the value JSON-escaped.
void append_str(std::string& out, std::string_view key,
                std::string_view value) {
  common::append(out, '"', key, "\":\"");
  common::append_json_escaped(out, value);
  out += '"';
}

struct KindName {
  ProvKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {ProvKind::ProbeStart, "probe-start"},
    {ProvKind::Attempt, "attempt"},
    {ProvKind::PacketSent, "packet"},
    {ProvKind::Forward, "forward"},
    {ProvKind::Drop, "drop"},
    {ProvKind::Impair, "impair"},
    {ProvKind::CensorAction, "censor"},
    {ProvKind::IdsAlert, "ids-alert"},
    {ProvKind::MvrClassify, "mvr-classify"},
    {ProvKind::MvrSample, "mvr-sample"},
    {ProvKind::MvrDiscard, "mvr-discard"},
    {ProvKind::AlertStored, "alert-stored"},
    {ProvKind::Evidence, "evidence"},
    {ProvKind::Verdict, "verdict"},
};

}  // namespace

std::string_view to_string(ProvKind kind) {
  for (const auto& [k, name] : kKindNames) {
    if (k == kind) return name;
  }
  return "?";
}

std::optional<ProvKind> prov_kind_from_string(std::string_view s) {
  for (const auto& [k, name] : kKindNames) {
    if (name == s) return k;
  }
  return std::nullopt;
}

std::string summarize_wire(const uint8_t* data, size_t len) {
  if (data == nullptr || len < 20 || (data[0] >> 4) != 4) return "raw";
  const size_t ihl = static_cast<size_t>(data[0] & 0x0f) * 4;
  const uint8_t proto = data[9];
  const char* name = proto == 6    ? "tcp"
                     : proto == 17 ? "udp"
                     : proto == 1  ? "icmp"
                                   : nullptr;
  const bool ports = (proto == 6 || proto == 17) && len >= ihl + 4;
  // "tcp a.b.c.d:p>e.f.g.h:q", "icmp a.b.c.d>e.f.g.h", "proto=N a>b".
  std::string out;
  out.reserve(48);
  if (name != nullptr) common::append(out, name, ' ');
  else common::append(out, "proto=", proto, ' ');
  auto endpoint = [&](const uint8_t* ip, const uint8_t* port) {
    common::append(out, ip[0], '.', ip[1], '.', ip[2], '.', ip[3]);
    if (ports) common::append(out, ':', uint16_t(port[0] << 8 | port[1]));
  };
  endpoint(data + 12, data + ihl);
  out += '>';
  endpoint(data + 16, data + ihl + 2);
  return out;
}

ProvenanceGraph::ProvenanceGraph(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void ProvenanceGraph::push(ProvEvent ev) {
  // The ring grows on demand, so a graph that never records owns no
  // event storage; once full it overwrites the oldest slot.
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    next_ = ring_.size() % capacity_;
    return;
  }
  ++dropped_;
  ring_[next_] = std::move(ev);
  next_ = (next_ + 1) % capacity_;
}

size_t ProvenanceGraph::oldest() const {
  return ring_.size() < capacity_ ? 0 : next_;
}

uint64_t ProvenanceGraph::record(ProvKind kind, common::SimTime ts,
                                 uint64_t cause, uint64_t packet,
                                 std::string what, std::string detail) {
  ProvEvent ev;
  ev.id = ++total_;
  ev.cause = cause;
  ev.packet = packet;
  ev.ts = ts;
  ev.kind = kind;
  ev.what = std::move(what);
  ev.detail = std::move(detail);
  push(std::move(ev));
  return total_;
}

uint64_t ProvenanceGraph::record_verdict(common::SimTime ts, uint64_t cause,
                                         std::string what, std::string detail,
                                         std::vector<uint64_t> evidence) {
  ProvEvent ev;
  ev.id = ++total_;
  ev.cause = cause;
  ev.ts = ts;
  ev.kind = ProvKind::Verdict;
  ev.what = std::move(what);
  ev.detail = std::move(detail);
  ev.refs = std::move(evidence);
  push(std::move(ev));
  return total_;
}

uint64_t ProvenanceGraph::record_packet(common::SimTime ts,
                                        const uint8_t* data, size_t len) {
  return record(ProvKind::PacketSent, ts, current_cause_, 0,
                summarize_wire(data, len));
}

void ProvenanceGraph::append_raw(ProvEvent ev) {
  if (ev.id == 0 || ev.id <= total_) return;  // ids must strictly increase
  dropped_ += ev.id - total_ - 1;             // gaps were drops upstream
  total_ = ev.id;
  push(std::move(ev));
}

void ProvenanceGraph::clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
  dropped_ = 0;
  current_cause_ = 0;
}

std::vector<ProvEvent> ProvenanceGraph::events() const {
  std::vector<ProvEvent> out;
  out.reserve(ring_.size());
  const size_t n = ring_.size(), start = oldest();
  for (size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) % n]);
  return out;
}

const ProvEvent* ProvenanceGraph::find(uint64_t id) const {
  if (id == 0 || id > total_) return nullptr;
  const size_t n = ring_.size(), start = oldest();
  // Retained ids are a contiguous run ending at the newest event; scan
  // backward from the newest (append_raw graphs may hold sparse ids, so
  // position arithmetic alone is not enough).
  for (size_t i = n; i-- > 0;) {
    const ProvEvent& ev = ring_[(start + i) % n];
    if (ev.id == id) return &ev;
    if (ev.id < id) return nullptr;
  }
  return nullptr;
}

std::vector<uint64_t> ProvenanceGraph::chain(uint64_t id) const {
  std::vector<uint64_t> out;
  uint64_t cur = id;
  // Causes always point backward (cause < id), so the walk terminates;
  // the guard is belt-and-braces against corrupt deserialized input.
  while (cur != 0 && out.size() <= ring_.size()) {
    const ProvEvent* ev = find(cur);
    if (ev == nullptr) break;
    out.push_back(cur);
    if (ev->cause >= cur) break;
    cur = ev->cause;
  }
  return out;
}

uint64_t ProvenanceGraph::root_of(uint64_t id) const {
  std::vector<uint64_t> c = chain(id);
  return c.empty() ? 0 : c.back();
}

std::string ProvenanceGraph::to_json() const {
  std::string out = "{\"events\":[";
  const size_t n = ring_.size(), start = oldest();
  out.reserve(n * 112 + 48);
  for (size_t i = 0; i < n; ++i) {
    const ProvEvent& ev = ring_[(start + i) % n];
    common::append(out, i ? ",{\"id\":" : "{\"id\":", ev.id, ",\"cause\":",
                   ev.cause);
    if (ev.packet != 0) common::append(out, ",\"packet\":", ev.packet);
    common::append(out, ",\"t\":", ev.ts.count(), ",\"kind\":\"",
                   to_string(ev.kind), "\",");
    append_str(out, "what", ev.what);
    if (!ev.detail.empty()) append_str(out += ',', "detail", ev.detail);
    for (size_t r = 0; r < ev.refs.size(); ++r)
      common::append(out, r ? "," : ",\"refs\":[", ev.refs[r]);
    out += ev.refs.empty() ? "}" : "]}";
  }
  common::append(out, "],\"total\":", total_, ",\"dropped\":", dropped_, "}");
  return out;
}

std::string to_chrome_json(const ProvenanceGraph& g) {
  const std::vector<ProvEvent> events = g.events();
  const size_t n = events.size();
  // One pass, oldest first. A cause's id is smaller than its event's, so
  // the cause's tid is known when the event comes up: the event inherits
  // it, and a chain root takes its own id if it is a probe-start, else
  // 0. Spans close in the same pass: an attempt or verdict ends its
  // probe's open attempt, and the verdict ends the probe.
  std::vector<uint64_t> tid(n, 0);
  std::vector<common::SimTime> end(n, n ? events.back().ts : common::SimTime{});
  std::vector<size_t> verdict(n, n);  // probe-start index -> verdict index
  std::unordered_map<uint64_t, size_t> open_attempt;  // probe id -> index
  for (size_t i = 0; i < n; ++i) {
    const ProvEvent& ev = events[i];
    auto cause = std::lower_bound(
        events.begin(), events.begin() + static_cast<ptrdiff_t>(i), ev.cause,
        [](const ProvEvent& e, uint64_t id) { return e.id < id; });
    const size_t c = static_cast<size_t>(cause - events.begin());
    const bool retained = c < i && cause->id == ev.cause;
    tid[i] = retained ? tid[c] : ev.kind == ProvKind::ProbeStart ? ev.id : 0;
    if (ev.kind != ProvKind::Attempt && ev.kind != ProvKind::Verdict) continue;
    if (auto it = open_attempt.find(ev.cause); it != open_attempt.end()) {
      end[it->second] = ev.ts;
      open_attempt.erase(it);
    }
    if (ev.kind == ProvKind::Attempt) {
      open_attempt[ev.cause] = i;
    } else if (retained && events[c].kind == ProvKind::ProbeStart &&
               verdict[c] == n) {
      end[c] = ev.ts;
      verdict[c] = i;
    }
  }

  std::string out = "{\"traceEvents\":[";
  out.reserve(n * 160 + 96);
  for (size_t i = 0; i < n; ++i) {
    const ProvEvent& ev = events[i];
    const bool probe = ev.kind == ProvKind::ProbeStart;
    const bool span = probe || ev.kind == ProvKind::Attempt;
    out += i ? ",{\"name\":\"" : "{\"name\":\"";
    if (span && !probe) out += "attempt ";
    common::append_json_escaped(out, probe  ? std::string_view(ev.what)
                                     : span ? std::string_view(ev.detail)
                                            : to_string(ev.kind));
    out += probe ? "\",\"cat\":\"probe\",\"ph\":\"X\""
           : span ? "\",\"cat\":\"attempt\",\"ph\":\"X\""
                  : "\",\"cat\":\"provenance\",\"ph\":\"i\",\"s\":\"t\"";
    append_micros(out += ",\"ts\":", ev.ts.count());
    if (span) {
      append_micros(out += ",\"dur\":",
                    std::max<int64_t>(0, (end[i] - ev.ts).count()));
    }
    common::append(out, ",\"pid\":1,\"tid\":", tid[i], ",\"args\":{");
    if (probe) {
      append_str(out, "technique", ev.what);
      append_str(out += ',', "target", ev.detail);
      if (verdict[i] != n) {
        append_str(out += ',', "verdict", events[verdict[i]].what);
        append_str(out += ',', "confidence", events[verdict[i]].detail);
      }
    } else {
      common::append(out, "\"id\":", ev.id);
      if (!span) {
        common::append(out, ",\"cause\":", ev.cause, ",\"packet\":", ev.packet,
                       ",");
        append_str(out, "what", ev.what);
        append_str(out += ',', "detail", ev.detail);
      }
    }
    out += "}}";
  }
  common::append(out,
                 "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"sim\","
                 "\"total\":",
                 g.total(), ",\"dropped\":", g.dropped(), "}}");
  return out;
}

std::vector<AlertAttribution> attribute_alerts(const ProvenanceGraph& g) {
  std::vector<AlertAttribution> out;
  for (const ProvEvent& ev : g.events()) {
    if (ev.kind != ProvKind::AlertStored) continue;
    AlertAttribution a;
    a.alert = ev.id;
    // The stored alert's packet link is inherited from its IdsAlert
    // parent; fall back to walking the parent if the copy is missing.
    a.packet = ev.packet;
    if (a.packet == 0) {
      if (const ProvEvent* parent = g.find(ev.cause)) {
        a.packet = parent->packet;
      }
    }
    if (a.packet != 0) {
      a.root = g.root_of(a.packet);
      if (const ProvEvent* root = g.find(a.root)) {
        a.probe_caused = root->kind == ProvKind::ProbeStart ||
                         root->kind == ProvKind::Attempt;
      }
    }
    out.push_back(a);
  }
  return out;
}

namespace {

std::string event_line(const ProvEvent& ev) {
  std::string line = common::format("[e%llu] ",
                                    static_cast<unsigned long long>(ev.id));
  line += std::string(to_string(ev.kind)) + " " + ev.what;
  if (!ev.detail.empty()) line += " (" + ev.detail + ")";
  line += common::format(" t=%.6fs", ev.ts.to_seconds());
  return line;
}

void render_chain(const ProvenanceGraph& g, uint64_t from, int indent,
                  std::string& out) {
  for (uint64_t id : g.chain(from)) {
    const ProvEvent* ev = g.find(id);
    if (ev == nullptr) break;
    out.append(static_cast<size_t>(indent), ' ');
    if (id != from) out += "<- ";
    out += event_line(*ev) + "\n";
  }
}

}  // namespace

std::string explain_text(const ProvenanceGraph& g) {
  std::string out;
  const std::vector<ProvEvent> events = g.events();

  for (const ProvEvent& ev : events) {
    if (ev.kind != ProvKind::Verdict) continue;
    out += "verdict: " + ev.what;
    if (!ev.detail.empty()) out += " (" + ev.detail + ")";
    out += common::format(" t=%.6fs\n", ev.ts.to_seconds());
    if (const ProvEvent* probe = g.find(g.root_of(ev.id))) {
      if (probe->id != ev.id) out += "  probe: " + event_line(*probe) + "\n";
    }
    if (ev.refs.empty()) {
      out += "  evidence: (none recorded)\n";
    } else {
      out += "  evidence:\n";
      for (uint64_t ref : ev.refs) {
        const ProvEvent* e = g.find(ref);
        out += "    ";
        out += e ? event_line(*e)
                 : common::format("[e%llu] (evicted)",
                                  static_cast<unsigned long long>(ref));
        out += "\n";
      }
    }
  }

  const std::vector<AlertAttribution> alerts = attribute_alerts(g);
  size_t probe_caused = 0;
  for (const auto& a : alerts) probe_caused += a.probe_caused ? 1 : 0;
  out += common::format("alerts: %zu stored, %zu probe-caused\n",
                        alerts.size(), probe_caused);
  for (const auto& a : alerts) {
    const ProvEvent* ev = g.find(a.alert);
    if (ev == nullptr) continue;
    out += "  " + event_line(*ev);
    out += a.probe_caused ? "  ** probe-caused **\n" : "  [background]\n";
    if (const ProvEvent* parent = g.find(ev->cause)) {
      out += "    <- " + event_line(*parent) + "\n";
    }
    if (a.packet != 0) {
      render_chain(g, a.packet, 6, out);
    } else {
      out += "      (causing packet not retained)\n";
    }
  }

  if (g.dropped() > 0) {
    out += common::format(
        "note: %llu event(s) dropped from the ring; chains may truncate\n",
        static_cast<unsigned long long>(g.dropped()));
  }
  return out;
}

}  // namespace sm::obs
