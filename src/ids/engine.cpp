#include "ids/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/strings.hpp"

namespace sm::ids {

std::string Alert::to_string() const {
  return common::format("[%0.6fs] [sid:%u] %s {%s} %s:%u -> %s:%u",
                        time.to_seconds(), sid, msg.c_str(),
                        ids::to_string(action).c_str(),
                        src.to_string().c_str(), src_port,
                        dst.to_string().c_str(), dst_port);
}

Engine::Engine(std::vector<Rule> rules, EngineOptions options)
    : options_(options) {
  rules_.reserve(rules.size());
  for (auto& r : rules) {
    CompiledRule cr;
    cr.matchers.reserve(r.contents.size());
    for (const auto& c : r.contents)
      cr.matchers.emplace_back(c.pattern, c.nocase);
    if (!r.contents.empty()) has_content_rules_ = true;
    cr.rule = std::move(r);
    rules_.push_back(std::move(cr));
  }
  // Resolve the match path once: Linear forces the scan, Fastpath forces
  // the index, Auto picks by ruleset size.
  switch (options_.mode) {
    case MatchMode::Linear:
      fastpath_active_ = false;
      break;
    case MatchMode::Fastpath:
      fastpath_active_ = true;
      break;
    case MatchMode::Auto:
      fastpath_active_ = rules_.size() > kAutoLinearMaxRules;
      break;
  }
  if (fastpath_active_) build_fastpath();
}

Engine Engine::from_text(std::string_view rules_text, const VarTable& vars,
                         EngineOptions options) {
  auto result = parse_rules(rules_text, vars);
  if (!result.ok()) {
    std::string msg = "rule parse failed:";
    for (const auto& e : result.errors)
      msg += common::format(" line %zu: %s;", e.line, e.message.c_str());
    throw std::invalid_argument(msg);
  }
  return Engine(std::move(result.rules), options);
}

namespace {
/// True iff the spec admits exactly one port (the indexable case).
bool single_port(const PortSpec& ps, uint16_t& out) {
  if (ps.any || ps.negated || ps.ranges.size() != 1) return false;
  if (ps.ranges[0].first != ps.ranges[0].second) return false;
  out = ps.ranges[0].first;
  return true;
}
}  // namespace

void Engine::build_fastpath() {
  for (uint32_t i = 0; i < rules_.size(); ++i) {
    CompiledRule& cr = rules_[i];
    const Rule& r = cr.rule;
    PortGroup& g = groups_[static_cast<size_t>(r.proto)];

    // A rule keyed on a single dst (or src) port can only header-match
    // packets carrying that port — bidirectional rules may also match
    // with the tuple swapped, so they index under both directions.
    uint16_t p = 0;
    if (single_port(r.dst_ports, p)) {
      g.by_dst[p].push_back(i);
      if (r.bidirectional) g.by_src[p].push_back(i);
    } else if (single_port(r.src_ports, p)) {
      g.by_src[p].push_back(i);
      if (r.bidirectional) g.by_dst[p].push_back(i);
    } else {
      g.fallback.push_back(i);
    }

    // Fast pattern: the longest positive content. Rules with only
    // negated (or no) contents bypass the prefilter entirely — absence
    // of a pattern can be what makes them match.
    const ContentMatch* best = nullptr;
    for (const auto& c : r.contents) {
      if (c.negated || c.pattern.empty()) continue;
      if (!best || c.pattern.size() > best->pattern.size()) best = &c;
    }
    if (best) cr.fast_pattern = prefilter_.add(best->pattern);
  }
  prefilter_.build();
}

void Engine::collect_candidates(const packet::Decoded& d) {
  candidates_.clear();
  uint16_t sp = d.src_port(), dp = d.dst_port();
  int lists = 0;  // bucket lists that contributed candidates
  auto add_list = [&](const std::vector<uint32_t>& v) {
    if (v.empty()) return;
    candidates_.insert(candidates_.end(), v.begin(), v.end());
    ++lists;
  };
  auto add_group = [&](const PortGroup& g) {
    if (auto it = g.by_src.find(sp); it != g.by_src.end())
      add_list(it->second);
    if (auto it = g.by_dst.find(dp); it != g.by_dst.end())
      add_list(it->second);
    add_list(g.fallback);
  };
  add_group(groups_[static_cast<size_t>(RuleProto::Ip)]);
  if (d.tcp)
    add_group(groups_[static_cast<size_t>(RuleProto::Tcp)]);
  else if (d.udp)
    add_group(groups_[static_cast<size_t>(RuleProto::Udp)]);
  else if (d.icmp)
    add_group(groups_[static_cast<size_t>(RuleProto::Icmp)]);

  // Rule order is match order (pass/drop short-circuit), so candidates
  // must be evaluated in ruleset order; a bidirectional rule indexed
  // both ways may appear twice. Each bucket list is already in ruleset
  // order, so a single contributing list needs no merge.
  if (lists > 1) {
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                      candidates_.end());
  }
}

bool Engine::header_matches(const CompiledRule& cr,
                            const packet::Decoded& d) const {
  const Rule& r = cr.rule;
  switch (r.proto) {
    case RuleProto::Tcp:
      if (!d.tcp) return false;
      break;
    case RuleProto::Udp:
      if (!d.udp) return false;
      break;
    case RuleProto::Icmp:
      if (!d.icmp) return false;
      break;
    case RuleProto::Ip:
      break;
  }
  uint16_t sp = d.src_port(), dp = d.dst_port();
  IpAddress src = d.src_addr(), dst = d.dst_addr();
  bool forward = r.src.matches(src) && r.src_ports.matches(sp) &&
                 r.dst.matches(dst) && r.dst_ports.matches(dp);
  if (forward) return true;
  if (r.bidirectional) {
    return r.src.matches(dst) && r.src_ports.matches(dp) &&
           r.dst.matches(src) && r.dst_ports.matches(sp);
  }
  return false;
}

bool Engine::options_match(const CompiledRule& cr, const packet::Decoded& d,
                           const FlowContext& fc, bool& used_stream) {
  const Rule& r = cr.rule;
  used_stream = false;

  if (r.flags) {
    if (!d.tcp) return false;
    uint8_t relevant = d.tcp->flags & static_cast<uint8_t>(~r.flags->ignore_mask);
    bool match;
    if (r.flags->exact)
      match = relevant == r.flags->required;
    else
      match = (relevant & r.flags->required) == r.flags->required;
    if (r.flags->negated) match = !match;
    if (!match) return false;
  }

  if (r.dsize && !r.dsize->matches(d.l4_payload.size())) return false;

  if (r.flow) {
    if (!fc.state) return false;
    if (r.flow->established && !fc.state->established) return false;
    if (r.flow->to_server && !fc.to_server) return false;
    if (r.flow->to_client && fc.to_server) return false;
  }

  // Content: every (non-negated and negated) content must hold. Try the
  // packet payload first; if any positive content misses and this is an
  // established TCP flow, retry all contents against the reassembled
  // stream for the packet's direction.
  if (!r.contents.empty()) {
    bool all_packet = true;
    for (size_t i = 0; i < r.contents.size(); ++i) {
      if (!content_matches(r.contents[i], cr.matchers[i], d.l4_payload)) {
        all_packet = false;
        break;
      }
    }
    if (all_packet) return true;
    if (d.tcp && fc.state) {
      auto stream = fc.to_server ? fc.state->to_server_stream.contiguous()
                                 : fc.state->to_client_stream.contiguous();
      if (!stream.empty()) {
        for (size_t i = 0; i < r.contents.size(); ++i) {
          if (!content_matches(r.contents[i], cr.matchers[i], stream))
            return false;
        }
        used_stream = true;
        return true;
      }
    }
    return false;
  }
  return true;
}

bool Engine::threshold_allows(const CompiledRule& cr, SimTime now,
                              const packet::Decoded& d) {
  const auto& spec = cr.rule.threshold;
  if (!spec) return true;
  IpAddress tracked = spec->track == ThresholdSpec::Track::BySrc
                          ? d.src_addr()
                          : d.dst_addr();
  ThresholdKey key{cr.rule.sid, tracked};
  ThresholdState& st = thresholds_[key];
  Duration window = Duration::seconds(spec->seconds);
  if (st.count == 0 || now - st.window_start > window) {
    st.window_start = now;
    st.count = 0;
    st.fired_in_window = false;
  }
  ++st.count;
  switch (spec->type) {
    case ThresholdSpec::Type::Limit:
      // Alert on the first `count` events per window.
      return st.count <= spec->count;
    case ThresholdSpec::Type::Threshold:
      // Alert on every `count`-th event.
      return st.count % spec->count == 0;
    case ThresholdSpec::Type::Both:
      // Alert once per window, when the count reaches `count`.
      if (st.count >= spec->count && !st.fired_in_window) {
        st.fired_in_window = true;
        return true;
      }
      return false;
  }
  return true;
}

bool Engine::eval_rule(uint32_t idx, SimTime now, const packet::Decoded& d,
                       const FlowContext& fc, Verdict& verdict) {
  CompiledRule& cr = rules_[idx];
  const Rule& r = cr.rule;
  if (!header_matches(cr, d)) return true;
  bool used_stream = false;
  if (!options_match(cr, d, fc, used_stream)) return true;

  // Stream-based matches fire once per flow per rule.
  if (used_stream && fc.state) {
    if (fc.state->fired_sids.count(r.sid)) return true;
    fc.state->fired_sids.insert(r.sid);
  }

  if (r.action == RuleAction::Pass) return false;  // whitelisted: stop here

  if (!threshold_allows(cr, now, d)) return true;

  Alert alert;
  alert.time = now;
  alert.sid = r.sid;
  alert.msg = r.msg;
  alert.classtype = r.classtype;
  alert.action = r.action;
  alert.priority = r.priority;
  alert.src = d.src_addr();
  alert.dst = d.dst_addr();
  alert.src_port = d.src_port();
  alert.dst_port = d.dst_port();
  verdict.alerts.push_back(std::move(alert));
  ++stats_.alerts;

  if (r.action == RuleAction::Drop || r.action == RuleAction::Reject) {
    verdict.drop = true;
    verdict.reject = r.action == RuleAction::Reject;
    ++stats_.drops;
    return false;  // inline action terminates evaluation
  }
  return true;
}

Verdict Engine::process(SimTime now, const packet::Decoded& d) {
  ++stats_.packets;
  Verdict verdict;
  FlowContext fc = flows_.update(now, d, has_content_rules_);

  if (!fastpath_active_) {
    for (uint32_t i = 0; i < rules_.size(); ++i)
      if (!eval_rule(i, now, d, fc, verdict)) break;
    return verdict;
  }

  collect_candidates(d);
  stats_.fastpath_candidates += candidates_.size();

  // Below the crossover, a shared payload scan costs more than letting
  // the few surviving content rules run their own sublinear BMH search.
  size_t content_candidates = 0;
  for (uint32_t idx : candidates_)
    if (rules_[idx].fast_pattern != FastPatternIndex::kNoPattern)
      ++content_candidates;
  bool use_prefilter =
      content_candidates >= options_.prefilter_min_candidates;

  // Prefilter scans are lazy: the payload is scanned once when the first
  // content candidate comes up, and the reassembled stream slice once
  // when a candidate's fast pattern was absent from the payload (a
  // stream retry inside options_match is still possible for it).
  bool scanned_payload = false;
  bool scanned_stream = false;
  for (uint32_t idx : candidates_) {
    uint32_t pid = rules_[idx].fast_pattern;
    if (use_prefilter && pid != FastPatternIndex::kNoPattern) {
      if (!scanned_payload) {
        prefilter_.begin_scan();
        prefilter_.scan(d.l4_payload);
        ++stats_.payload_scans;
        scanned_payload = true;
      }
      if (!prefilter_.hit(pid) && !scanned_stream && d.tcp && fc.state) {
        auto stream = fc.to_server ? fc.state->to_server_stream.contiguous()
                                   : fc.state->to_client_stream.contiguous();
        if (!stream.empty()) {
          prefilter_.scan(stream);
          ++stats_.stream_scans;
        }
        scanned_stream = true;  // at most one stream pass per packet
      }
      if (!prefilter_.hit(pid)) {
        ++stats_.prefilter_skips;
        continue;
      }
      ++stats_.prefilter_hits;
    }
    if (!eval_rule(idx, now, d, fc, verdict)) break;
  }
  return verdict;
}

void Engine::export_metrics(obs::Registry& registry,
                            std::string_view instance) const {
  obs::Labels labels = {{"instance", std::string(instance)}};
  auto set = [&](std::string_view metric, uint64_t value,
                 std::string_view help) {
    registry.counter(metric, labels, help)->set(value);
  };
  set("sm_ids_packets_total", stats_.packets,
      "packets run through the signature engine");
  set("sm_ids_alerts_total", stats_.alerts, "rule alerts raised");
  set("sm_ids_drops_total", stats_.drops,
      "packets matched by drop/reject rules");
  set("sm_ids_fastpath_candidates_total", stats_.fastpath_candidates,
      "rules surviving the port-group index");
  set("sm_ids_prefilter_hits_total", stats_.prefilter_hits,
      "content rules whose fast pattern hit");
  set("sm_ids_prefilter_skips_total", stats_.prefilter_skips,
      "content rules skipped by the fast-pattern prefilter");
  set("sm_ids_payload_scans_total", stats_.payload_scans,
      "Aho-Corasick passes over payloads");
  set("sm_ids_stream_scans_total", stats_.stream_scans,
      "lazy passes over reassembled streams");
  registry
      .gauge("sm_ids_rules", labels, "compiled rules in the engine")
      ->set(static_cast<double>(rules_.size()));
  registry
      .gauge("sm_ids_flow_buffered_bytes", labels,
             "bytes of stream-reassembly state held")
      ->set(static_cast<double>(flows_.buffered_bytes()));
}

}  // namespace sm::ids
