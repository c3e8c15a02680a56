// Named campaign workloads: trial lists rebuildable from a short string
// spec.
//
// A command line cannot hold ProbeFactory closures, but it can hold a
// name: sm-campaignd passes its --workload spec here and hands the list
// to campaign::run, whose process workers fork without exec and so
// inherit it, closures included. A relaunch rebuilds the identical list
// from the same spec, and the checkpoint layer's workload digest (CRC
// over the ordered trial names) refuses a checkpoint written for another.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace sm::campaign {

/// Builds the trial list for a workload spec. Known specs:
///
///   "synthetic:N" — N cheap, deterministic eval-style trials cycling
///                   two censor configs (RST-keyword and DNS-forgery
///                   profiles) x two techniques (overt HTTP, overt DNS),
///                   lightweight testbeds; observability enabled on
///                   every 4th trial (so checkpoint records carry
///                   registry snapshots) and provenance on every 16th
///                   (so they carry causal-graph exports).
///
/// Throws std::invalid_argument on an unknown or malformed spec.
std::vector<Trial> build_workload(const std::string& spec);

}  // namespace sm::campaign
