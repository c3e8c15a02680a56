#include "core/report_json.hpp"

#include "common/strings.hpp"

namespace sm::core {

using common::json_escape;

std::string to_json(const ProbeReport& report) {
  const Confidence& c = report.confidence;
  return common::format(
      "{\"technique\":\"%s\",\"target\":\"%s\",\"verdict\":\"%s\","
      "\"detail\":\"%s\",\"packets_sent\":%zu,\"samples\":%zu,"
      "\"samples_blocked\":%zu,\"attempts\":%zu,\"blocked\":%s,"
      "\"confidence\":{\"conclusion\":\"%s\",\"trials\":%zu,"
      "\"open\":%zu,\"blocked\":%zu,\"silent\":%zu,\"score\":%.6g}}",
      json_escape(report.technique).c_str(),
      json_escape(report.target).c_str(),
      std::string(to_string(report.verdict)).c_str(),
      json_escape(report.detail).c_str(), report.packets_sent,
      report.samples, report.samples_blocked, report.attempts,
      is_blocked(report.verdict) ? "true" : "false",
      std::string(to_string(c.conclusion)).c_str(), c.trials,
      c.trials_open, c.trials_blocked, c.trials_silent, c.score);
}

std::string to_json(const RiskReport& risk) {
  return common::format(
      "{\"technique\":\"%s\",\"evaded\":%s,\"investigated\":%s,"
      "\"targeted_alerts\":%llu,\"censored_access_alerts\":%llu,"
      "\"noise_alerts\":%llu,\"suspicion\":%.6g,"
      "\"attribution_probability\":%.6g}",
      json_escape(risk.technique).c_str(), risk.evaded ? "true" : "false",
      risk.investigated ? "true" : "false",
      static_cast<unsigned long long>(risk.targeted_alerts),
      static_cast<unsigned long long>(risk.censored_access_alerts),
      static_cast<unsigned long long>(risk.noise_alerts), risk.suspicion,
      risk.attribution_probability);
}

std::string to_jsonl(
    const std::vector<std::pair<ProbeReport, RiskReport>>& results) {
  std::string out;
  for (const auto& [report, risk] : results) {
    out += "{\"measurement\":" + to_json(report) +
           ",\"risk\":" + to_json(risk) + "}\n";
  }
  return out;
}

}  // namespace sm::core
