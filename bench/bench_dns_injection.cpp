// E3 — §3.2.3 GFC DNS injection validation.
//
// Paper: "We verified that the Great Firewall of China (GFC) injected bad
// A DNS responses for both A and MX requests for twitter.com and
// youtube.com." We reproduce the exact experiment: A and MX queries for
// both names (plus controls) through the GFC-profile censor, and check
// that the answer is the forged address for censored names and the true
// record for controls.
#include <cstdio>

#include "analysis/report.hpp"
#include "core/overt.hpp"
#include "core/probe.hpp"
#include "report.hpp"

using namespace sm;

int main(int argc, char** argv) {
  bench::Report metrics("dns_injection", argc, argv);
  std::printf("E3 — GFC DNS injection: bad A answers for A and MX "
              "queries (paper §3.2.3)\n\n");

  const common::Ipv4Address forged(8, 7, 198, 45);
  struct Case {
    std::string domain;
    proto::dns::RecordType type;
    bool expect_forged;
  };
  std::vector<Case> cases = {
      {"twitter.com", proto::dns::RecordType::A, true},
      {"twitter.com", proto::dns::RecordType::MX, true},
      {"youtube.com", proto::dns::RecordType::A, true},
      {"youtube.com", proto::dns::RecordType::MX, true},
      {"open.example", proto::dns::RecordType::A, false},
      {"open.example", proto::dns::RecordType::MX, false},
  };

  analysis::Table table({"qname", "qtype", "first A in answer",
                         "forged?", "expected"});
  size_t unexpected = 0;
  for (const Case& c : cases) {
    core::TestbedConfig config;
    config.policy = censor::gfc_profile(forged);
    core::Testbed tb(config);

    std::optional<proto::dns::QueryResult> result;
    tb.resolver->query(proto::dns::Name(c.domain), c.type,
                       [&](const proto::dns::QueryResult& r) { result = r; });
    tb.run_until([&]() { return result.has_value(); });

    std::string answer = "(none)";
    bool is_forged = false;
    if (result && result->response) {
      if (auto a = result->response->first_a()) {
        answer = a->to_string();
        is_forged = *a == forged;
      }
    }
    if (is_forged != c.expect_forged) ++unexpected;
    table.add_row({c.domain, to_string(c.type), answer,
                   is_forged ? "YES" : "no",
                   c.expect_forged ? "forged" : "genuine"});
  }
  std::printf("%s\n", table.to_markdown().c_str());
  // Paper shape: forged A for both qtypes of both censored names, genuine
  // answers for the controls.
  metrics.invariant("answers_not_as_expected", unexpected, 0, "queries");
  return metrics.finish();
}
