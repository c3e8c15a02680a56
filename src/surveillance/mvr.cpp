#include "surveillance/mvr.hpp"

#include "obs/provenance.hpp"

namespace sm::surveillance {

namespace {
std::vector<ids::Rule> build_ruleset(const MvrConfig& config) {
  auto rules = community_ruleset(config.ruleset);
  if (config.enable_fingerprint_rules) {
    auto extra = fingerprint_ruleset();
    rules.insert(rules.end(), extra.begin(), extra.end());
  }
  return rules;
}
}  // namespace

MvrTap::MvrTap(MvrConfig config)
    : config_(config),
      engine_(build_ruleset(config), config.ids_options),
      classifier_(config.classifier),
      analyst_(config.analyst),
      content_(config.content_retention),
      metadata_(config.metadata_retention),
      alerts_(config.alert_retention),
      sampler_(config.sampling_seed) {}

netsim::TapDecision MvrTap::process(const netsim::TapContext& ctx,
                                    netsim::Router& router) {
  obs::ProvenanceGraph* prov = router.engine().provenance();
  const auto& d = ctx.decoded();
  uint64_t wire_bytes = ctx.pkt.wire().size();
  ++stats_.packets_seen;
  stats_.bytes_seen += wire_bytes;

  // Connection metadata is always recorded: per-flow (CDR-like) and as
  // raw per-packet store items for retention accounting.
  flows_.add(ctx.now, d, wire_bytes);
  flows_.flush_idle(ctx.now);
  MetadataItem meta;
  meta.time = ctx.now;
  meta.src = common::host_identity(d.src_addr());
  meta.dst = common::host_identity(d.dst_addr());
  meta.src_port = d.src_port();
  meta.dst_port = d.dst_port();
  meta.proto = d.l4_proto();
  meta.bytes = static_cast<uint32_t>(wire_bytes);
  metadata_.add(ctx.now, meta, sizeof(MetadataItem));

  TrafficClass cls = classifier_.classify(ctx.now, d);
  stats_.bytes_by_class[cls] += wire_bytes;
  if (prov != nullptr) {
    prov->record(obs::ProvKind::MvrClassify, ctx.now, ctx.prov, ctx.prov,
                 to_string(cls));
  }

  // Signature pass.
  auto verdict = engine_.process(ctx.now, d);
  for (const auto& alert : verdict.alerts) {
    // Dossiers are per host, not per address: a map_v6 source attributes
    // to the same user as its v4 identity, so switching families does
    // not split (or reset) anyone's suspicion ledger.
    Ipv4Address src_user = common::host_identity(alert.src);
    Ipv4Address dst_user = common::host_identity(alert.dst);
    ++stats_.alerts_by_classtype[alert.classtype];
    uint64_t ids_ev = 0;
    if (prov != nullptr) {
      ids_ev = prov->record(obs::ProvKind::IdsAlert, ctx.now, ctx.prov,
                            ctx.prov, "sid=" + std::to_string(alert.sid),
                            alert.classtype);
    }
    if (noise_classtypes().count(alert.classtype)) {
      ++stats_.noise_alerts;
      ++noise_by_user_[src_user];
      analyst_.record_noise_alert(ctx.now, src_user);
      continue;
    }
    ++stats_.interesting_alerts;
    ++interesting_by_user_[src_user];
    AlertItem item;
    item.time = ctx.now;
    item.sid = alert.sid;
    item.src = src_user;
    item.dst = dst_user;
    item.classtype = alert.classtype;
    item.priority = alert.priority;
    alerts_.add(ctx.now, item, 128);
    const bool censored_touch = alert.classtype == "policy-violation";
    if (prov != nullptr) {
      prov->record(obs::ProvKind::AlertStored, ctx.now, ids_ev, ctx.prov,
                   alert.classtype,
                   "src=" + alert.src.to_string() +
                       (censored_touch ? " kind=censored" : " kind=targeted"));
    }
    if (censored_touch) {
      ++censored_by_user_[src_user];
      analyst_.record_censored_touch(ctx.now, src_user);
    } else {
      ++targeted_by_user_[src_user];
      analyst_.record_interesting_alert(ctx.now, src_user, alert.priority);
    }
  }

  // Volume reduction.
  if (config_.discard_classes.count(cls)) {
    stats_.bytes_discarded += wire_bytes;
    if (prov != nullptr) {
      prov->record(obs::ProvKind::MvrDiscard, ctx.now, ctx.prov, ctx.prov,
                   to_string(cls));
    }
  } else if (sampler_.chance(config_.content_retention_fraction)) {
    ContentItem item;
    item.time = ctx.now;
    item.src = common::host_identity(d.src_addr());
    item.dst = common::host_identity(d.dst_addr());
    item.bytes = static_cast<uint32_t>(wire_bytes);
    content_.add(ctx.now, item, wire_bytes);
    stats_.bytes_content_retained += wire_bytes;
    analyst_.record_retained_content(ctx.now, item.src, wire_bytes);
    if (prov != nullptr) {
      prov->record(obs::ProvKind::MvrSample, ctx.now, ctx.prov, ctx.prov,
                   to_string(cls));
    }
  }

  // Keep the stores' windows current.
  content_.evict(ctx.now);
  metadata_.evict(ctx.now);
  alerts_.evict(ctx.now);

  return netsim::TapDecision::Pass;
}

uint64_t MvrTap::interesting_alerts_for(Ipv4Address user) const {
  const uint64_t* n = interesting_by_user_.find(user);
  return n == nullptr ? 0 : *n;
}

uint64_t MvrTap::targeted_alerts_for(Ipv4Address user) const {
  const uint64_t* n = targeted_by_user_.find(user);
  return n == nullptr ? 0 : *n;
}

uint64_t MvrTap::censored_access_alerts_for(Ipv4Address user) const {
  const uint64_t* n = censored_by_user_.find(user);
  return n == nullptr ? 0 : *n;
}

uint64_t MvrTap::noise_alerts_for(Ipv4Address user) const {
  const uint64_t* n = noise_by_user_.find(user);
  return n == nullptr ? 0 : *n;
}

namespace {

using Stats = MvrTap::Stats;
const obs::StatCounter<Stats> kMvrCounters[] = {
    {&Stats::packets_seen, "sm_mvr_packets_seen_total",
     "packets observed by the surveillance tap"},
    {&Stats::bytes_seen, "sm_mvr_bytes_seen_total",
     "wire bytes observed by the surveillance tap"},
    {&Stats::bytes_discarded, "sm_mvr_bytes_discarded_total",
     "bytes discarded wholesale by volume reduction"},
    {&Stats::bytes_content_retained, "sm_mvr_bytes_content_retained_total",
     "bytes sampled into the content store"},
    {&Stats::noise_alerts, "sm_mvr_noise_alerts_total",
     "alerts in noise classes (seen, then discarded pre-analyst)"},
    {&Stats::interesting_alerts, "sm_mvr_interesting_alerts_total",
     "alerts stored and forwarded to the analyst"},
};
const obs::Family kBytesByClass{obs::Kind::Counter,
                                "sm_mvr_bytes_by_class_total",
                                "observed bytes by traffic classification",
                                {"class"}};
const obs::Family kAlertsByClasstype{obs::Kind::Counter,
                                     "sm_mvr_alerts_by_classtype_total",
                                     "alerts raised, by rule classtype",
                                     {"classtype"}};
const obs::Family kRetainedFraction{
    obs::Kind::Gauge, "sm_mvr_retained_fraction",
    "content-store inflow / bytes seen (7.5% anchor)"};
const obs::Family kStoreItems{obs::Kind::Gauge, "sm_mvr_store_items",
                              "items held in retention store", {"store"}};
const obs::Family kStoreBytes{obs::Kind::Gauge, "sm_mvr_store_bytes",
                              "bytes held in retention store", {"store"}};
const obs::Family kDossiers{obs::Kind::Gauge, "sm_mvr_dossiers",
                            "per-user dossiers held by the analyst"};
const obs::Family kInvestigated{
    obs::Kind::Gauge, "sm_mvr_investigated_users",
    "dossiers at or above the investigation threshold"};
const obs::Family kSuspicion{
    obs::Kind::Histogram, "sm_mvr_dossier_suspicion",
    "analyst suspicion score per dossier (threshold default 10)", {},
    {0.0, 20.0, 20}};
const obs::Family kDossierBytes{
    obs::Kind::Histogram, "sm_mvr_dossier_retained_bytes",
    "retained content bytes attributed per dossier", {}, {0.0, 1 << 20, 16}};

}  // namespace

void MvrTap::export_metrics(obs::Registry& registry) const {
  for (const auto& [field, family] : kMvrCounters)
    registry.counter(family)->set(stats_.*field);
  for (const auto& [cls, bytes] : stats_.bytes_by_class)
    registry.counter(kBytesByClass, {to_string(cls)})->set(bytes);
  for (const auto& [classtype, count] : stats_.alerts_by_classtype)
    registry.counter(kAlertsByClasstype, {classtype})->set(count);
  registry.gauge(kRetainedFraction)->set(retained_fraction());
  auto store_gauges = [&](std::string_view which, size_t items,
                          uint64_t bytes) {
    registry.gauge(kStoreItems, {which})->set(static_cast<double>(items));
    registry.gauge(kStoreBytes, {which})->set(static_cast<double>(bytes));
  };
  store_gauges("content", content_.count(), content_.bytes());
  store_gauges("metadata", metadata_.count(), metadata_.bytes());
  store_gauges("alerts", alerts_.count(), alerts_.bytes());
  registry.gauge(kDossiers)->set(static_cast<double>(analyst_.dossier_count()));
  registry.gauge(kInvestigated)
      ->set(static_cast<double>(analyst_.investigation_list().size()));
  auto* suspicion = registry.histogram(kSuspicion);
  auto* dossier_bytes = registry.histogram(kDossierBytes);
  suspicion->reset();
  dossier_bytes->reset();
  for (const auto& d : analyst_.top_suspects(analyst_.dossier_count())) {
    suspicion->observe(d.suspicion);
    dossier_bytes->observe(static_cast<double>(d.retained_content_bytes));
  }
  engine_.export_metrics(registry, "mvr");
}

double MvrTap::retained_fraction() const {
  if (stats_.bytes_seen == 0) return 0.0;
  return static_cast<double>(stats_.bytes_content_retained) /
         static_cast<double>(stats_.bytes_seen);
}

}  // namespace sm::surveillance
