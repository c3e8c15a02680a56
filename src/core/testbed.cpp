#include "core/testbed.hpp"

#include "common/strings.hpp"

namespace sm::core {

namespace {

/// Per-try timeout of the shared client resolver.
constexpr common::Duration kDnsTimeout = common::Duration::millis(2000);

/// The page the blocked site serves: contains a censored keyword, so a
/// keyword censor RSTs the response stream even when the IP is reachable.
proto::http::Response blocked_site_page(const proto::http::Request& req) {
  return proto::http::Response::ok(
      "<html><body><h1>News</h1><p>Coverage of the falun movement and the "
      "tiananmen anniversary.</p><p>Requested: " +
      req.target + "</p></body></html>");
}

proto::http::Response open_site_page(const proto::http::Request& req) {
  return proto::http::Response::ok(
      "<html><body><h1>World Service</h1><p>Weather, sport and business "
      "news.</p><p>Requested: " + req.target + "</p></body></html>");
}

const obs::Family kCaptureRecords{obs::Kind::Gauge, "sm_capture_records",
                                  "packets held by the capture tap"};
const obs::Family kCaptureDropped{
    obs::Kind::Counter, "sm_capture_dropped_total",
    "capture records evicted by the max_records cap"};
const obs::Family kProvEvents{
    obs::Kind::Gauge, "sm_provenance_events",
    "provenance events currently retained in the ring"};
const obs::Family kProvEventsTotal{obs::Kind::Counter,
                                   "sm_provenance_events_total",
                                   "provenance events ever recorded"};
const obs::Family kProvDropped{
    obs::Kind::Counter, "sm_provenance_dropped_total",
    "provenance events evicted by the drop-oldest ring"};

}  // namespace

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)) {
  // Observability first, so provenance sees topology setup events too.
  metrics_ = std::make_unique<obs::Registry>();
  metrics_->set_enabled(config_.enable_observability);
  provenance_ = std::make_unique<obs::ProvenanceGraph>();
  if (config_.enable_provenance) {
    net.engine().set_provenance(provenance_.get());
  }

  // All per-link randomness (loss, bursts, reorder, ...) hangs off the
  // testbed's netsim seed; must be set before the first connect().
  net.set_link_seed_root(config_.netsim_seed);

  router = net.add_router("switch");
  router->set_router_address(Ipv4Address(10, 1, 1, 1));

  // --- Client AS ---
  client = net.add_host("client", addr_.client);
  net.connect(client, router, config_.client_link);
  for (size_t i = 0; i < config_.neighbor_count; ++i) {
    Ipv4Address a(addr_.neighbor_base.value() + static_cast<uint32_t>(i));
    netsim::Host* h = net.add_host("neighbor" + std::to_string(i), a);
    net.connect(h, router, config_.client_link);
    neighbors.push_back(h);
    neighbor_stacks.push_back(std::make_unique<proto::tcp::Stack>(*h));
  }

  // --- Server side ---
  web_open = net.add_host("web-open", addr_.web_open);
  web_blocked = net.add_host("web-blocked", addr_.web_blocked);
  dns_host = net.add_host("dns", addr_.dns);
  mail_open = net.add_host("mail-open", addr_.mail_open);
  mail_blocked = net.add_host("mail-blocked", addr_.mail_blocked);
  measurement_server = net.add_host("measurement", addr_.measurement);
  for (netsim::Host* h : {web_open, web_blocked, dns_host, mail_open,
                          mail_blocked, measurement_server}) {
    net.connect(h, router, config_.server_link);
  }

  // --- Taps: MVR observes first, censor enforces second ---
  mvr = std::make_unique<surveillance::MvrTap>(config_.mvr);
  censor_tap = std::make_unique<censor::CensorTap>(config_.policy);
  trace = std::make_unique<netsim::TraceTap>();
  if (config_.capture_max_records > 0)
    trace->set_max_records(config_.capture_max_records);
  router->add_tap(mvr.get());
  router->add_tap(censor_tap.get());
  router->add_tap(trace.get());

  // --- SAV ingress filtering on client-side ports (ports are assigned
  // in connect order: client is port 0, neighbors 1..N) ---
  if (config_.enable_sav) {
    spoof::SavModel sav(config_.sav_distribution, config_.sav_seed);
    router->set_ingress_filter(0, sav.filter_for(addr_.client));
    for (size_t i = 0; i < neighbors.size(); ++i) {
      router->set_ingress_filter(static_cast<int>(i + 1),
                                 sav.filter_for(neighbors[i]->address()));
    }
  }

  // --- Services ---
  client_stack = std::make_unique<proto::tcp::Stack>(*client);
  resolver = std::make_unique<proto::dns::Client>(
      *client, addr_.dns, kDnsTimeout, static_cast<int>(config_.dns_retries));

  web_open_stack = std::make_unique<proto::tcp::Stack>(*web_open);
  web_open_http = std::make_unique<proto::http::Server>(*web_open_stack, 80);
  web_open_http->set_default_handler(open_site_page);

  web_blocked_stack = std::make_unique<proto::tcp::Stack>(*web_blocked);
  web_blocked_http =
      std::make_unique<proto::http::Server>(*web_blocked_stack, 80);
  web_blocked_http->set_default_handler(blocked_site_page);

  proto::dns::Zone zone;
  zone.add_site_with_mail("open.example", addr_.web_open, addr_.mail_open);
  zone.add_site_with_mail("blocked.example", addr_.web_blocked,
                          addr_.mail_blocked);
  // Real answers for GFC-forged names (truth lives at web_open here).
  for (const char* name : {"twitter.com", "youtube.com", "facebook.com"}) {
    zone.add_site_with_mail(name, addr_.web_open, addr_.mail_open);
  }
  zone.add_site("measure.example", addr_.measurement);
  dns_server = std::make_unique<proto::dns::Server>(*dns_host,
                                                    std::move(zone));

  mail_open_stack = std::make_unique<proto::tcp::Stack>(*mail_open);
  smtp_open = std::make_unique<proto::smtp::Server>(*mail_open_stack,
                                                    "mail.open.example");
  mail_blocked_stack = std::make_unique<proto::tcp::Stack>(*mail_blocked);
  smtp_blocked = std::make_unique<proto::smtp::Server>(
      *mail_blocked_stack, "mail.blocked.example");

  measurement_stack = std::make_unique<proto::tcp::Stack>(*measurement_server);
  measurement_http =
      std::make_unique<proto::http::Server>(*measurement_stack, 80);
  mimicry_server = std::make_unique<spoof::MimicryServer>(
      *measurement_stack, config_.mimicry_secret, 80);
}

std::vector<Ipv4Address> Testbed::client_as_addresses() const {
  std::vector<Ipv4Address> out{addr_.client};
  for (const auto* h : neighbors) out.push_back(h->address());
  return out;
}

std::vector<Ipv4Address> Testbed::neighbor_addresses() const {
  std::vector<Ipv4Address> out;
  for (const auto* h : neighbors) out.push_back(h->address());
  return out;
}

obs::Registry& Testbed::metrics_snapshot() {
  obs::Registry& reg = *metrics_;
  if (!reg.enabled()) return reg;
  net.engine().export_metrics(reg);
  net.export_link_metrics(reg);
  router->export_metrics(reg);
  mvr->export_metrics(reg);
  censor_tap->export_metrics(reg);
  reg.gauge(kCaptureRecords)->set(static_cast<double>(trace->size()));
  reg.counter(kCaptureDropped)->set(trace->dropped());
  if (config_.enable_provenance) {
    reg.gauge(kProvEvents)->set(static_cast<double>(provenance_->size()));
    reg.counter(kProvEventsTotal)->set(provenance_->total());
    reg.counter(kProvDropped)->set(provenance_->dropped());
  }
  return reg;
}

std::unique_ptr<obs::Registry> Testbed::release_metrics() {
  metrics_snapshot();
  auto released = std::move(metrics_);
  released->shrink_to_fit();
  metrics_ = std::make_unique<obs::Registry>();
  metrics_->set_enabled(false);
  return released;
}

std::string Testbed::provenance_json() {
  return config_.enable_provenance ? provenance_->to_json() : std::string();
}

std::string Testbed::metrics_json() { return metrics_snapshot().to_json(); }

bool Testbed::run_until(const std::function<bool()>& predicate,
                        Duration timeout) {
  common::SimTime deadline = net.engine().now() + timeout;
  while (!predicate()) {
    if (net.engine().pending() == 0 || net.engine().now() >= deadline) {
      // Drain up to the deadline so timers (e.g. probe timeouts) fire.
      if (net.engine().now() < deadline) {
        net.engine().run_until(deadline);
        if (predicate()) return true;
      }
      return predicate();
    }
    net.engine().run(1);
  }
  return true;
}

}  // namespace sm::core
