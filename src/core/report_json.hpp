// JSON serialization for measurement results — the interchange shape
// measurement platforms actually publish (OONI reports are JSON lines).
// Hand-rolled emitter: flat objects, full string escaping, no external
// dependency.
#pragma once

#include <string>
#include <vector>

#include "core/risk.hpp"
#include "core/verdict.hpp"

namespace sm::core {

/// One measurement as a JSON object.
std::string to_json(const ProbeReport& report);

/// One risk assessment as a JSON object.
std::string to_json(const RiskReport& risk);

/// A campaign as JSON Lines: one `{"measurement":..., "risk":...}` object
/// per line (the OONI-style report file shape).
std::string to_jsonl(const std::vector<std::pair<ProbeReport, RiskReport>>&
                         results);

}  // namespace sm::core
