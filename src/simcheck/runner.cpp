#include "simcheck/runner.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "campaign/campaign.hpp"
#include "core/overt.hpp"
#include "obs/provenance.hpp"
#include "core/report_json.hpp"
#include "core/testbed.hpp"
#include "packet/packet.hpp"
#include "proto/dns/message.hpp"
#include "spoof/sav.hpp"

namespace sm::simcheck {

using common::Bytes;
using common::Duration;
using common::Ipv4Address;
using core::Conclusion;
using core::ProbeReport;
using core::RiskReport;
using core::Testbed;
using core::Verdict;

SeedPack SeedPack::derive(uint64_t root_seed, size_t trial_index) {
  SeedPack p;
  p.sav = campaign::trial_seed(root_seed, trial_index, 0);
  p.mvr = campaign::trial_seed(root_seed, trial_index, 1);
  p.netsim = campaign::trial_seed(root_seed, trial_index, 2);
  p.generator = campaign::trial_seed(root_seed, trial_index, 3);
  p.family = campaign::trial_seed(root_seed, trial_index, 4);
  return p;
}

std::string Faults::to_string() const {
  if (break_verdict && ttl_plus_one) return "break-verdict+ttl-plus-one";
  if (break_verdict) return "break-verdict";
  if (ttl_plus_one) return "ttl-plus-one";
  return "none";
}

Faults Faults::from_string(std::string_view name) {
  Faults f;
  if (name.find("break-verdict") != std::string_view::npos) {
    f.break_verdict = true;
  }
  if (name.find("ttl-plus-one") != std::string_view::npos) {
    f.ttl_plus_one = true;
  }
  return f;
}

OracleMask OracleMask::only(std::string_view oracle) {
  OracleMask m{false, false, false, false, false};
  if (oracle == "O1") m.o1 = true;
  else if (oracle == "O2") m.o2 = true;
  else if (oracle == "O3") m.o3 = true;
  else if (oracle == "O4") m.o4 = true;
  else if (oracle == "O5") m.o5 = true;
  return m;
}

namespace {

constexpr Duration kProbeTimeout = Duration::seconds(60);
constexpr Duration kDrain = Duration::seconds(2);

/// Does the report claim Blocked on the strength of *active* evidence
/// (an injected RST/forged answer/blockpage — things loss cannot fake)?
bool confirmed_blocked(const ProbeReport& report) {
  if (report.verdict == Verdict::BlockedRst ||
      report.verdict == Verdict::BlockedDnsForgery ||
      report.verdict == Verdict::BlockedBlockpage) {
    return true;
  }
  return report.confidence.confirmed();
}

/// O5's packet checks over the capture of a live testbed: counts into
/// `out`, failures into `o5`.
void check_codecs(const Scenario& scenario, const Testbed& tb,
                  TrialOutcome& out, std::vector<Failure>& o5) {
  const bool corruption_possible =
      scenario.impair.any() && scenario.impair.model.corrupt_rate > 0.0;
  for (const packet::PcapRecord& rec : tb.trace->records()) {
    ++out.packets_checked;
    auto decoded = packet::decode(std::span<const uint8_t>(rec.data));
    if (!decoded) {
      ++out.packets_undecodable;
      if (!corruption_possible) {
        o5.push_back(
            {"O5", "undecodable packet in trace with corruption disabled"});
      }
      continue;
    }
    const packet::Decoded& d = *decoded;
    // DNS payloads must reach an encode/parse fixpoint.
    if (d.udp && (d.udp->dst_port == 53 || d.udp->src_port == 53)) {
      if (auto msg = proto::dns::decode(d.l4_payload)) {
        Bytes once = proto::dns::encode(*msg);
        auto again = proto::dns::decode(std::span<const uint8_t>(once));
        if (!again) {
          o5.push_back({"O5", "re-encoded DNS message failed to parse"});
        } else if (proto::dns::encode(*again) != once) {
          o5.push_back({"O5", "DNS encode/parse did not reach a fixpoint"});
        }
      }
    }
    // v6 datagrams check the decode → reassemble6 fixpoint instead: the
    // header re-encoder is byte-preserving across the whole extension
    // chain, so the rebuilt datagram must equal the original exactly.
    if (d.is_v6()) {
      std::span<const uint8_t> wire(rec.data);
      packet::Packet rebuilt6 = packet::reassemble6(
          *d.ip6, wire.subspan(d.ip6->header_length()));
      if (rebuilt6.data().size() != wire.size() ||
          !std::equal(rebuilt6.data().begin(), rebuilt6.data().end(),
                      wire.begin())) {
        o5.push_back({"O5", "v6 decode -> reassemble6 changed the datagram"});
      } else if (!d.ip6->has_fragment && !corruption_possible &&
                 !packet::verify_checksums(wire)) {
        o5.push_back({"O5", "v6 datagram checksums invalid"});
      }
      continue;
    }
    // Rebuild the datagram from its decoded form; fragments and packets
    // carrying header options are outside the builders' vocabulary.
    if (d.ip.more_fragments || d.ip.fragment_offset != 0) continue;
    if (!d.ip.options.empty()) continue;
    packet::IpOptions ip_opts{.ttl = d.ip.ttl,
                              .tos = d.ip.tos,
                              .identification = d.ip.identification,
                              .dont_fragment = d.ip.dont_fragment};
    packet::Packet rebuilt;
    if (d.tcp) {
      if (!d.tcp->options.empty()) continue;
      rebuilt = packet::make_tcp(d.ip.src, d.ip.dst, d.tcp->src_port,
                                 d.tcp->dst_port, d.tcp->flags, d.tcp->seq,
                                 d.tcp->ack, d.l4_payload, ip_opts,
                                 d.tcp->window);
    } else if (d.udp) {
      rebuilt = packet::make_udp(d.ip.src, d.ip.dst, d.udp->src_port,
                                 d.udp->dst_port, d.l4_payload, ip_opts);
    } else if (d.icmp) {
      rebuilt = packet::make_icmp(d.ip.src, d.ip.dst, d.icmp->type,
                                  d.icmp->code, d.icmp->rest, d.l4_payload,
                                  ip_opts);
    } else {
      continue;
    }
    auto redecoded = packet::decode(rebuilt);
    if (!redecoded) {
      o5.push_back({"O5", "rebuilt packet failed to decode"});
      continue;
    }
    const packet::Decoded& r = *redecoded;
    bool same = r.ip.src == d.ip.src && r.ip.dst == d.ip.dst &&
                r.ip.ttl == d.ip.ttl && r.ip.tos == d.ip.tos &&
                r.ip.identification == d.ip.identification &&
                r.ip.dont_fragment == d.ip.dont_fragment &&
                r.ip.protocol == d.ip.protocol &&
                std::equal(r.l4_payload.begin(), r.l4_payload.end(),
                           d.l4_payload.begin(), d.l4_payload.end());
    if (same && d.tcp) {
      same = r.tcp && r.tcp->src_port == d.tcp->src_port &&
             r.tcp->dst_port == d.tcp->dst_port && r.tcp->seq == d.tcp->seq &&
             r.tcp->ack == d.tcp->ack && r.tcp->flags == d.tcp->flags &&
             r.tcp->window == d.tcp->window;
    }
    if (same && d.udp) {
      same = r.udp && r.udp->src_port == d.udp->src_port &&
             r.udp->dst_port == d.udp->dst_port;
    }
    if (same && d.icmp) {
      same = r.icmp && r.icmp->type == d.icmp->type &&
             r.icmp->code == d.icmp->code && r.icmp->rest == d.icmp->rest;
    }
    if (!same) {
      o5.push_back({"O5", "decode -> rebuild -> decode changed packet fields"});
    } else if (!packet::verify_checksums(
                   std::span<const uint8_t>(rebuilt.data()))) {
      o5.push_back({"O5", "rebuilt packet checksums invalid"});
    }
  }
}

/// Runs the scenario once, filling every per-run field of `out` (the
/// JSON strings are what O2 byte-compares across executions; the O3/O5
/// raw material is collected while the testbed is alive). O5's packet
/// checks run only when `o5` is non-null.
void execute(const Scenario& scenario, const SeedPack& seeds,
             const Faults& faults, TrialOutcome& out,
             std::vector<Failure>* o5) {
  Testbed tb(scenario.testbed_config(seeds.sav, seeds.mvr, seeds.netsim));
  const Ipv4Address measurement = tb.addr().measurement;
  std::set<Ipv4Address> neighbor_set;
  for (Ipv4Address a : tb.neighbor_addresses()) neighbor_set.insert(a);

  // O3 raw material: watch for mimicry-server replies actually being
  // *delivered* inside the client AS (they may legitimately cross the
  // tap, where they must die of TTL).
  std::vector<std::pair<netsim::Host*, uint64_t>> hooks;
  if (scenario.technique == Technique::MimicryStateful) {
    for (netsim::Host* n : tb.neighbors) {
      uint64_t id = n->add_promiscuous(
          [&out, measurement](const packet::Decoded& d, const Bytes&) {
            // RSTs claiming the server's address are censor injections
            // (tearing the cover flows down is the cover story working);
            // the Fig. 3b hazard is a SYN-ACK/data *reply* surviving to
            // the spoofed client's stack.
            if (d.ip.src == measurement && !(d.tcp && d.tcp->rst())) {
              ++out.replies_reached_client;
            }
          });
      hooks.emplace_back(n, id);
    }
  }

  auto probe = scenario.make_probe(
      tb, faults.ttl_plus_one ? Testbed::kHopsToTap + 1 : 0);
  out.report = core::run_probe(tb, *probe, kProbeTimeout);
  tb.run_for(kDrain);
  for (auto& [host, id] : hooks) host->remove_promiscuous(id);

  if (faults.break_verdict) {
    // The sabotaged verdict rule: promote whatever happened to a
    // confirmed (active-evidence) Blocked conclusion.
    out.report.verdict = Verdict::BlockedRst;
    out.report.confidence.conclusion = Conclusion::Blocked;
    out.report.confidence.trials = std::max<size_t>(
        out.report.confidence.trials, 1);
    out.report.confidence.trials_blocked = out.report.confidence.trials;
    out.report.confidence.trials_open = 0;
    out.report.confidence.trials_silent = 0;
    out.report.confidence.score = 1.0;
  }

  out.risk = core::assess_risk(tb, out.report.technique);
  out.report_json = core::to_json(out.report);
  out.risk_json = core::to_json(out.risk);
  out.metrics_json = tb.metrics_json();
  out.provenance_json = tb.provenance_json();
  if (const obs::ProvenanceGraph* g = tb.prov_sink()) {
    for (const obs::AlertAttribution& a : obs::attribute_alerts(*g)) {
      ++out.graph_stored_alerts;
      if (a.probe_caused) ++out.graph_probe_caused_alerts;
    }
  }

  // Scan the tap capture for O3's crossing / SAV counters.
  spoof::SavModel sav_model(tb.config().sav_distribution,
                            tb.config().sav_seed);
  const Ipv4Address client = tb.addr().client;
  for (const packet::PcapRecord& rec : tb.trace->records()) {
    auto decoded = packet::decode(std::span<const uint8_t>(rec.data));
    if (!decoded) continue;
    const packet::Decoded& d = *decoded;
    // host_identity folds map_v6 sources back to their v4 identity, so
    // v6 cover traffic is judged against the same SAV model as v4.
    Ipv4Address src_id = common::host_identity(d.src_addr());
    Ipv4Address dst_id = common::host_identity(d.dst_addr());
    if (src_id == measurement && neighbor_set.count(dst_id)) {
      ++out.replies_crossed_tap;
    }
    if (scenario.sav && neighbor_set.count(src_id)) {
      // Packets only the measurement client fabricates: neighbor stacks
      // never initiate connections or query DNS, so a neighbor-sourced
      // SYN or DNS query at the tap is client-spoofed and must fall
      // inside the client's modeled spoofing scope.
      bool spoof_shaped =
          (d.udp && d.udp->dst_port == 53) ||
          (d.tcp && d.tcp->syn() && !d.tcp->ack_flag());
      if (spoof_shaped && !sav_model.allows(client, d.src_addr())) {
        ++out.sav_violations;
      }
    }
  }

  if (o5 != nullptr) check_codecs(scenario, tb, out, *o5);
}

std::unique_ptr<core::Probe> overt_counterpart(const Scenario& scenario,
                                               Testbed& tb) {
  if (scenario.technique == Technique::MimicryDns) {
    core::OvertDnsOptions opts;
    opts.domain = scenario.domain;
    return std::make_unique<core::OvertDnsProbe>(tb, opts);
  }
  core::OvertHttpOptions opts;
  opts.domain = "measure.example";
  opts.path = scenario.censored() ? "/search?q=falun" : "/probe/health";
  return std::make_unique<core::OvertHttpProbe>(tb, opts);
}

}  // namespace

TrialOutcome run_scenario(const Scenario& scenario, const SeedPack& seeds,
                          const Faults& faults, const OracleMask& mask) {
  TrialOutcome out;
  out.scenario = scenario;
  out.seeds = seeds;

  // O5 failures wait here so they follow O1–O4 in `failures`.
  std::vector<Failure> o5;
  execute(scenario, seeds, faults, out, mask.o5 ? &o5 : nullptr);

  const bool clean = !scenario.impair.any();
  const bool censored = scenario.censored();

  if (mask.o1) {
    if (!censored) {
      if (confirmed_blocked(out.report)) {
        out.failures.push_back(
            {"O1", "confirmed Blocked (" +
                       std::string(core::to_string(out.report.verdict)) +
                       ") on an uncensored path"});
      } else if (clean) {
        if (core::is_blocked(out.report.verdict) ||
            out.report.confidence.conclusion == Conclusion::Blocked) {
          out.failures.push_back(
              {"O1", "Blocked verdict on a clean uncensored path"});
        } else if (out.report.verdict != Verdict::Reachable) {
          out.failures.push_back(
              {"O1", "clean uncensored path not found Reachable (got " +
                         std::string(core::to_string(out.report.verdict)) +
                         ")"});
        }
      }
    } else if (clean) {
      auto expected = scenario.expected_verdicts();
      if (std::find(expected.begin(), expected.end(), out.report.verdict) ==
          expected.end()) {
        out.failures.push_back(
            {"O1", "censored clean path gave unexpected verdict " +
                       std::string(core::to_string(out.report.verdict))});
      } else if (out.report.confidence.conclusion == Conclusion::Open) {
        out.failures.push_back(
            {"O1", "Open conclusion on a censored clean path"});
      }
    }
    // Censored *and* impaired: a censor's evidence may drown in loss;
    // missing it is a false negative, which safety does not forbid.
  }

  if (mask.o2) {
    TrialOutcome again;
    execute(scenario, seeds, faults, again, nullptr);
    if (again.report_json != out.report_json) {
      out.failures.push_back({"O2", "report JSON differs under re-run"});
    }
    if (again.risk_json != out.risk_json) {
      out.failures.push_back({"O2", "risk JSON differs under re-run"});
    }
    if (again.metrics_json != out.metrics_json) {
      out.failures.push_back({"O2", "metrics snapshot differs under re-run"});
    }
    if (again.provenance_json != out.provenance_json) {
      out.failures.push_back(
          {"O2", "provenance graph differs under re-run"});
    }
  }

  if (mask.o3) {
    if (out.replies_reached_client > 0) {
      out.failures.push_back(
          {"O3", "TTL-limited reply delivered to a spoofed client (" +
                     std::to_string(out.replies_reached_client) +
                     " packets)"});
    }
    if (out.sav_violations > 0) {
      out.failures.push_back(
          {"O3", "cover traffic at the tap violates the SAV model (" +
                     std::to_string(out.sav_violations) + " packets)"});
    }
    // The positive half of the Fig. 3b claim: with covers in play and
    // nothing suppressing them, replies must actually cross the tap
    // (dying afterwards) — otherwise the cover story never existed.
    if (scenario.technique == Technique::MimicryStateful &&
        scenario.cover_count > 0 && clean && !scenario.sav &&
        !faults.ttl_plus_one && out.replies_crossed_tap == 0) {
      out.failures.push_back(
          {"O3", "no TTL-limited reply ever crossed the tap"});
    }
  }

  if (mask.o4 && clean && Scenario::stealthy(scenario.technique) &&
      (scenario.technique == Technique::MimicryDns ||
       scenario.technique == Technique::MimicryStateful)) {
    Testbed overt_tb(
        scenario.testbed_config(seeds.sav, seeds.mvr, seeds.netsim));
    auto overt = overt_counterpart(scenario, overt_tb);
    ProbeReport overt_report = core::run_probe(overt_tb, *overt, kProbeTimeout);
    overt_tb.run_for(kDrain);
    RiskReport overt_risk =
        core::assess_risk(overt_tb, overt_report.technique);
    if (out.risk.targeted_alerts > overt_risk.targeted_alerts) {
      out.failures.push_back(
          {"O4", "mimicry left more targeted alerts (" +
                     std::to_string(out.risk.targeted_alerts) +
                     ") than its overt counterpart (" +
                     std::to_string(overt_risk.targeted_alerts) + ")"});
    }
    if (overt_risk.targeted_alerts > 0 &&
        out.risk.attribution_probability >
            overt_risk.attribution_probability + 1e-9) {
      out.failures.push_back(
          {"O4", "mimicry attribution exceeds overt attribution"});
    }
    // The graph-walk form of the same bound: attribute every stored MVR
    // alert to the root of its causal chain; alerts rooted in the probe
    // must not be more numerous for mimicry than for its overt twin.
    size_t overt_probe_caused = 0;
    if (const obs::ProvenanceGraph* g = overt_tb.prov_sink()) {
      for (const obs::AlertAttribution& a : obs::attribute_alerts(*g))
        if (a.probe_caused) ++overt_probe_caused;
    }
    if (out.graph_probe_caused_alerts > overt_probe_caused) {
      out.failures.push_back(
          {"O4", "provenance graph attributes more stored alerts to the "
                 "mimicry probe (" +
                     std::to_string(out.graph_probe_caused_alerts) +
                     ") than to its overt counterpart (" +
                     std::to_string(overt_probe_caused) + ")"});
    }
  }

  for (Failure& f : o5) out.failures.push_back(std::move(f));

  return out;
}

std::string TrialOutcome::log_line(size_t index) const {
  char head[160];
  std::snprintf(head, sizeof(head),
                "trial=%zu technique=%s family=%s elements=%zu censored=%d",
                index, std::string(to_string(scenario.technique)).c_str(),
                scenario.ipv6 ? "v6" : "v4", scenario.elements(),
                scenario.censored() ? 1 : 0);
  std::string line = head;
  line += " verdict=";
  line += core::to_string(report.verdict);
  line += " conclusion=";
  line += core::to_string(report.confidence.conclusion);
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                " targeted=%" PRIu64 " attribution=%.6f crossed=%zu"
                " delivered=%zu packets=%zu",
                risk.targeted_alerts, risk.attribution_probability,
                replies_crossed_tap, replies_reached_client, packets_checked);
  line += tail;
  if (failures.empty()) {
    line += " ok";
  } else {
    line += " FAIL[";
    for (size_t i = 0; i < failures.size(); ++i) {
      if (i) line += ',';
      line += failures[i].oracle;
    }
    line += ']';
  }
  return line;
}

}  // namespace sm::simcheck
