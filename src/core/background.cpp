#include "core/background.hpp"

#include "common/strings.hpp"

namespace sm::core {

BackgroundTraffic::BackgroundTraffic(Testbed& tb, BackgroundConfig config)
    : tb_(tb), config_(config), rng_(config.seed) {}

void BackgroundTraffic::schedule(common::Duration window) {
  double window_s = window.to_seconds();
  for (size_t i = 0; i < tb_.neighbors.size(); ++i) {
    netsim::Host* host = tb_.neighbors[i];
    proto::tcp::Stack* stack = tb_.neighbor_stacks[i].get();

    // Poisson arrivals for each activity type.
    for (double t = rng_.exponential(config_.web_rate); t < window_s;
         t += rng_.exponential(config_.web_rate)) {
      schedule_web(host, stack, common::Duration::from_seconds(t));
    }
    for (double t = rng_.exponential(config_.dns_rate); t < window_s;
         t += rng_.exponential(config_.dns_rate)) {
      schedule_dns(host, common::Duration::from_seconds(t));
    }
    for (double t = rng_.exponential(config_.mail_rate); t < window_s;
         t += rng_.exponential(config_.mail_rate)) {
      schedule_mail(host, stack, common::Duration::from_seconds(t));
    }
    if (rng_.chance(config_.p2p_fraction)) {
      for (double t = rng_.exponential(config_.p2p_packet_rate);
           t < window_s; t += rng_.exponential(config_.p2p_packet_rate)) {
        schedule_p2p(host, common::Duration::from_seconds(t));
      }
    }
  }
}

void BackgroundTraffic::schedule_web(netsim::Host* host,
                                     proto::tcp::Stack* stack,
                                     common::Duration at) {
  ++events_;
  http_clients_.push_back(std::make_unique<proto::http::Client>(*stack));
  proto::http::Client* client = http_clients_.back().get();
  common::Ipv4Address target = rng_.chance(0.9)
                                   ? tb_.addr().web_open
                                   : tb_.addr().web_blocked;
  host->engine().schedule(at, [client, target]() {
    client->fetch(target, 80, proto::http::Request::get("open.example", "/"),
                  [](const proto::http::FetchResult&) {});
  });
}

void BackgroundTraffic::schedule_dns(netsim::Host* host,
                                     common::Duration at) {
  ++events_;
  resolvers_.push_back(
      std::make_unique<proto::dns::Client>(*host, tb_.addr().dns));
  proto::dns::Client* resolver = resolvers_.back().get();
  const char* names[] = {"open.example", "blocked.example",
                         "measure.example", "twitter.com"};
  std::string name = names[rng_.bounded(4)];
  host->engine().schedule(at, [resolver, name]() {
    resolver->query(proto::dns::Name(name), proto::dns::RecordType::A,
                    [](const proto::dns::QueryResult&) {});
  });
}

void BackgroundTraffic::schedule_mail(netsim::Host* host,
                                      proto::tcp::Stack* stack,
                                      common::Duration at) {
  ++events_;
  smtp_clients_.push_back(std::make_unique<proto::smtp::Client>(*stack));
  proto::smtp::Client* client = smtp_clients_.back().get();
  common::Ipv4Address target = tb_.addr().mail_open;
  std::string sender = host->name();
  host->engine().schedule(at, [client, target, sender]() {
    proto::smtp::Envelope env;
    env.helo_domain = sender + ".example";
    env.mail_from = "<" + sender + "@client.example>";
    env.rcpt_to = "<friend@open.example>";
    env.data = "Subject: hello\r\n\r\nLunch tomorrow?\r\n";
    client->deliver(target, env, [](const proto::smtp::DeliveryResult&) {});
  });
}

void BackgroundTraffic::schedule_p2p(netsim::Host* host,
                                     common::Duration at) {
  ++events_;
  // UDP datagrams on BitTorrent ports with DHT-looking payloads; high
  // volume, discarded wholesale by the MVR.
  common::Bytes payload = common::to_bytes("d1:ad2:id20:");
  payload.resize(config_.p2p_payload, 'x');
  common::Ipv4Address peer = tb_.addr().measurement;  // any far host
  host->engine().schedule(at, [host, peer, payload]() {
    host->send_udp(peer, 6881, 6881, payload);
  });
}

}  // namespace sm::core
