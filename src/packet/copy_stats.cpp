#include "packet/copy_stats.hpp"

#include "obs/metrics.hpp"

namespace sm::packet {

CopyCounters& copy_counters() {
  static CopyCounters counters;
  return counters;
}

void reset_copy_counters() {
  CopyCounters& c = copy_counters();
  c.hop.store(0, std::memory_order_relaxed);
  c.impairment.store(0, std::memory_order_relaxed);
  c.pcap.store(0, std::memory_order_relaxed);
  c.defrag.store(0, std::memory_order_relaxed);
  c.stream.store(0, std::memory_order_relaxed);
}

namespace {

const obs::Family kCopies{
    obs::Kind::Counter, "sm_packet_copies_total",
    "packet payload copies, by reason (hop must stay 0)", {"site"}};

}  // namespace

void export_copy_metrics(obs::Registry& registry) {
  const std::pair<const char*, CopySite> sites[] = {
      {"hop", CopySite::Hop},       {"impairment", CopySite::Impairment},
      {"pcap", CopySite::Pcap},     {"defrag", CopySite::Defrag},
      {"stream", CopySite::Stream}};
  for (const auto& [site, which] : sites)
    registry.counter(kCopies, {site})->set(copies(which));
}

}  // namespace sm::packet
