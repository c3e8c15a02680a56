#include "core/mimicry.hpp"

#include "common/strings.hpp"

#include "core/overt.hpp"
#include "spoof/ttl.hpp"

namespace sm::core {

// --- StatelessDnsMimicryProbe ---

StatelessDnsMimicryProbe::StatelessDnsMimicryProbe(
    Testbed& tb, StatelessMimicryOptions options)
    : Probe(tb, "mimicry-dns", options.domain, 1),
      options_(std::move(options)),
      forged_ips_(forged_hints(tb)) {
  cover_ = std::make_unique<spoof::StatelessDnsCover>(*tb_.client,
                                                      tb_.addr().dns);
}

void StatelessDnsMimicryProbe::launch() {
  begin_attempt();
  // Spread the spoofed cover around the real query so ordering does not
  // give the measurer away.
  auto neighbors = tb_.neighbor_addresses();
  if (neighbors.size() > options_.cover_count)
    neighbors.resize(options_.cover_count);
  expect_cover(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    common::Duration at =
        options_.spread * static_cast<int64_t>(i) /
        static_cast<int64_t>(std::max<size_t>(neighbors.size(), 1));
    after(at, [this, addr = neighbors[i]]() {
      obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
      cover_sent_ += cover_->emit({addr}, proto::dns::Name(options_.domain),
                                  options_.type);
      ++report_.packets_sent;
      cover_emitted();
    });
  }
  // The real measurement sits in the middle of the spread.
  after(options_.spread / 2, [this]() {
    ++report_.packets_sent;
    obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
    tb_.resolver->query(
        proto::dns::Name(options_.domain), options_.type,
        guarded([this](const proto::dns::QueryResult& result) {
          auto [verdict, detail] = dns_verdict(result, forged_ips_);
          finish(verdict, std::move(detail), confidence_from(verdict),
                 result.answered() ? "dns-answer" : "dns-timeout");
        }));
  });
}

// --- StatefulMimicryProbe ---

StatefulMimicryProbe::StatefulMimicryProbe(Testbed& tb,
                                           StatefulMimicryOptions options)
    : Probe(tb, "mimicry-stateful", "measure.example" + options.path, 1),
      options_(std::move(options)) {
  http_ = std::make_unique<proto::http::Client>(*tb_.client_stack);
  mimic_ = std::make_unique<spoof::StatefulMimicryClient>(
      *tb_.client, tb_.addr().measurement, 80,
      tb_.config().mimicry_secret,
      common::Duration::millis(12));
}

size_t StatefulMimicryProbe::cover_flows_started() const {
  return mimic_->flows_started();
}

void StatefulMimicryProbe::conclude_fetch(Verdict v, std::string detail) {
  finish(v, std::move(detail), confidence_from(v),
         is_blocked(v) ? "blocked" : "response");
}

void StatefulMimicryProbe::launch() {
  begin_attempt();
  auto ttl = spoof::plan_reply_ttl(options_.hops_to_tap,
                                   options_.hops_to_client);
  std::string request = "GET " + options_.path +
                        " HTTP/1.1\r\nHost: measure.example\r\n"
                        "User-Agent: Mozilla/5.0 (X11; Linux x86_64)\r\n"
                        "Connection: close\r\n\r\n";

  // Cover flows from neighbors, spread around the real fetch.
  auto neighbors = tb_.neighbor_addresses();
  if (neighbors.size() > options_.cover_flows)
    neighbors.resize(options_.cover_flows);
  expect_cover(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    common::Ipv4Address spoofed = neighbors[i];
    if (ttl) tb_.mimicry_server->register_cover_client(spoofed, *ttl);
    common::Duration at =
        options_.spread * static_cast<int64_t>(i) /
        static_cast<int64_t>(std::max<size_t>(neighbors.size(), 1));
    after(at, [this, spoofed, request]() {
      obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
      mimic_->run_flow(spoofed, request);
      report_.packets_sent += 4;  // SYN, ACK, data, FIN
      cover_emitted();
    });
  }

  // The real measurement: an ordinary fetch of the keyword URL from the
  // server we control. A keyword censor RSTs it; otherwise it completes.
  after(options_.spread / 2, [this]() {
    proto::http::Request req =
        proto::http::Request::get("measure.example", options_.path);
    ++report_.packets_sent;
    obs::ScopedCause cause(prov_.graph(), prov_.attempt_id());
    http_->fetch(
        tb_.addr().measurement, 80, req,
        guarded([this](const proto::http::FetchResult& result) {
          using proto::http::FetchOutcome;
          switch (result.outcome) {
            case FetchOutcome::Ok:
              conclude_fetch(Verdict::Reachable,
                             "fetched through; keyword not censored");
              break;
            case FetchOutcome::ConnectReset:
            case FetchOutcome::ResetMidStream:
              conclude_fetch(Verdict::BlockedRst, "keyword triggered RST");
              break;
            case FetchOutcome::ConnectTimeout:
            case FetchOutcome::Timeout:
              conclude_fetch(Verdict::BlockedTimeout,
                             std::string(to_string(result.outcome)));
              break;
            default:
              conclude_fetch(Verdict::Inconclusive, "protocol error");
              break;
          }
        }));
  });
}

}  // namespace sm::core
