// §4 techniques — manipulating population traffic with IP spoofing.
//
// StatelessDnsMimicryProbe (Fig. 3a): the real DNS measurement plus
// identical queries spoofed from neighbors in the client's AS, so the
// surveillance system sees the whole /24 asking the same question and
// cannot single out the measurer.
//
// StatefulMimicryProbe (Fig. 3b): an HTTP fetch of a censored-keyword URL
// from a measurement server we control (hosted in "cloud" address space),
// surrounded by complete spoofed cover flows carrying the same request.
// The server TTL-limits replies to the spoofed clients so they die after
// the tap, and its ISN is predictable to the client, which forges the
// spoofed ACKs/data.
#pragma once

#include <set>

#include "core/probe.hpp"

namespace sm::core {

struct StatelessMimicryOptions {
  std::string domain = "blocked.example";
  proto::dns::RecordType type = proto::dns::RecordType::A;
  /// Cover queries spoofed from this many neighbors.
  size_t cover_count = 10;
  /// Cover queries are spread over this window around the real one.
  common::Duration spread = common::Duration::millis(100);
};

class StatelessDnsMimicryProbe : public Probe {
 public:
  StatelessDnsMimicryProbe(Testbed& tb, StatelessMimicryOptions options = {});

  size_t cover_sent() const { return cover_sent_; }

 private:
  void launch() override;

  StatelessMimicryOptions options_;
  std::set<uint32_t> forged_ips_;
  std::unique_ptr<spoof::StatelessDnsCover> cover_;
  size_t cover_sent_ = 0;
};

struct StatefulMimicryOptions {
  /// Request path carrying the censored keyword under test ("specially
  /// crafted Web requests", §4.1).
  std::string path = "/search?q=falun";
  size_t cover_flows = 10;
  common::Duration spread = common::Duration::millis(100);
  /// Hop counts for TTL planning; the single-router testbed has both = 1.
  int hops_to_tap = 1;
  int hops_to_client = 1;
};

class StatefulMimicryProbe : public Probe {
 public:
  StatefulMimicryProbe(Testbed& tb, StatefulMimicryOptions options = {});

  size_t cover_flows_started() const;

 private:
  void launch() override;
  void conclude_fetch(Verdict v, std::string detail);

  StatefulMimicryOptions options_;
  std::unique_ptr<proto::http::Client> http_;
  std::unique_ptr<spoof::StatefulMimicryClient> mimic_;
};

}  // namespace sm::core
