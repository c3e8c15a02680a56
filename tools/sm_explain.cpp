// sm-explain: render a verdict's causal narrative from its provenance
// export.
//
//   sm-explain --trace out.jsonl --trial 7
//   sm-explain --trace out.jsonl --list
//   sm-explain --trace provenance.json
//   sm-explain --trace out.jsonl --trial 7 --chrome trace.json
//
// The input is either a campaign JSONL file (one object per trial, the
// provenance graph under "provenance" for trials that enabled it) or a
// bare provenance object as exported by ProvenanceGraph::to_json /
// Testbed::provenance_json. The graph is rebuilt event-by-event and
// printed as the per-verdict narrative plus the attribution chain of
// every stored MVR alert — the "was this alert *our* packet?" question
// the paper's safety argument turns on. --chrome writes the graph as a
// Chrome trace_event timeline (obs::to_chrome_json) instead.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/provenance.hpp"

namespace {

using sm::obs::ProvEvent;
using sm::obs::ProvenanceGraph;
using sm::common::Json;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --trace <file> [--trial N] [--list] "
               "[--chrome OUT]\n"
               "\n"
               "  <file> is a campaign/simcheck JSONL output (rows with a\n"
               "  \"provenance\" object) or a bare provenance JSON export.\n"
               "  --trial N     explain only trial N (default: every trial\n"
               "                that carries a provenance graph)\n"
               "  --list        list trials and their provenance event counts\n"
               "  --chrome OUT  write the graph as Chrome trace_event JSON\n"
               "                to OUT (JSONL input needs --trial)\n",
               argv0);
  return 2;
}

/// Rebuilds a graph from the parsed {"events":[...],"total":n,...}
/// object. Returns nullopt when the shape is not a provenance export.
std::optional<ProvenanceGraph> graph_from_json(const Json& doc) {
  const Json* events = doc.get("events");
  if (!events || !events->is_array()) return std::nullopt;
  ProvenanceGraph g;
  for (const Json& e : events->items()) {
    if (!e.is_object()) return std::nullopt;
    ProvEvent ev;
    ev.id = static_cast<uint64_t>(e.get("id") ? e.get("id")->as_int() : 0);
    ev.cause =
        static_cast<uint64_t>(e.get("cause") ? e.get("cause")->as_int() : 0);
    ev.packet = static_cast<uint64_t>(
        e.get("packet") ? e.get("packet")->as_int() : 0);
    ev.ts = sm::common::SimTime(e.get("t") ? e.get("t")->as_int() : 0);
    if (const Json* kind = e.get("kind")) {
      auto parsed = sm::obs::prov_kind_from_string(kind->as_string());
      if (!parsed) {
        std::fprintf(stderr, "warning: unknown event kind \"%s\"\n",
                     kind->as_string().c_str());
        continue;
      }
      ev.kind = *parsed;
    }
    if (const Json* what = e.get("what")) ev.what = what->as_string();
    if (const Json* detail = e.get("detail"))
      ev.detail = detail->as_string();
    if (const Json* refs = e.get("refs")) {
      for (const Json& r : refs->items())
        ev.refs.push_back(static_cast<uint64_t>(r.as_int()));
    }
    if (ev.id == 0) return std::nullopt;
    g.append_raw(std::move(ev));
  }
  return g;
}

/// Writes the Chrome trace_event export of `g` to `path`.
int write_chrome(const ProvenanceGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << sm::obs::to_chrome_json(g);
  if (!out.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

struct TrialRow {
  int64_t trial = -1;
  std::string name;
  Json provenance;  // Null when the row carries none
};

}  // namespace

int main(int argc, char** argv) {
  std::string path, chrome;
  int64_t want_trial = -1;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      path = argv[++i];
    } else if (!std::strcmp(argv[i], "--trial") && i + 1 < argc) {
      want_trial = std::atoll(argv[++i]);
    } else if (!std::strcmp(argv[i], "--list")) {
      list = true;
    } else if (!std::strcmp(argv[i], "--chrome") && i + 1 < argc) {
      chrome = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();

  // A bare provenance export is a single JSON object with "events".
  if (auto whole = Json::parse(text)) {
    if (auto g = graph_from_json(*whole)) {
      if (list) {
        std::printf("(bare provenance export) events=%zu dropped=%llu\n",
                    g->size(),
                    static_cast<unsigned long long>(g->dropped()));
        return 0;
      }
      if (!chrome.empty()) return write_chrome(*g, chrome);
      std::fputs(sm::obs::explain_text(*g).c_str(), stdout);
      return 0;
    }
  }

  // Otherwise: JSONL, one trial row per line.
  std::vector<TrialRow> rows;
  size_t lineno = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    ++lineno;
    if (line.empty()) continue;
    auto doc = Json::parse(line);
    if (!doc || !doc->is_object()) {
      std::fprintf(stderr, "warning: line %zu is not a JSON object\n",
                   lineno);
      continue;
    }
    const Json* trial = doc->get("trial");
    if (!trial) continue;  // the trailing {"metrics":[...]} line
    TrialRow row;
    row.trial = trial->as_int();
    if (const Json* name = doc->get("name")) row.name = name->as_string();
    if (const Json* prov = doc->get("provenance")) row.provenance = *prov;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    std::fprintf(stderr,
                 "error: %s contains neither a provenance export nor "
                 "trial rows\n",
                 path.c_str());
    return 1;
  }

  if (!chrome.empty() && want_trial < 0) {
    std::fprintf(stderr, "error: --chrome on JSONL input needs --trial N\n");
    return 2;
  }
  if (list) {
    for (const TrialRow& row : rows) {
      std::string events = "-";
      if (row.provenance.is_object()) {
        if (const Json* evs = row.provenance.get("events"))
          events = std::to_string(evs->items().size());
      }
      std::printf("trial %lld  %-32s events=%s\n",
                  static_cast<long long>(row.trial), row.name.c_str(),
                  events.c_str());
    }
    return 0;
  }

  bool matched = false;
  for (const TrialRow& row : rows) {
    if (want_trial >= 0 && row.trial != want_trial) continue;
    if (!row.provenance.is_object()) {
      if (want_trial >= 0) {
        std::fprintf(stderr,
                     "error: trial %lld has no provenance graph (enable "
                     "TestbedConfig::enable_provenance)\n",
                     static_cast<long long>(want_trial));
        return 1;
      }
      continue;
    }
    auto g = graph_from_json(row.provenance);
    if (!g) {
      std::fprintf(stderr, "error: trial %lld: malformed provenance\n",
                   static_cast<long long>(row.trial));
      return 1;
    }
    if (!chrome.empty()) return write_chrome(*g, chrome);
    matched = true;
    std::printf("=== trial %lld: %s ===\n",
                static_cast<long long>(row.trial), row.name.c_str());
    std::fputs(sm::obs::explain_text(*g).c_str(), stdout);
    std::printf("\n");
  }
  if (!matched) {
    if (want_trial >= 0) {
      std::fprintf(stderr, "error: no trial %lld in %s\n",
                   static_cast<long long>(want_trial), path.c_str());
    } else {
      std::fprintf(stderr, "error: no trial in %s carries provenance\n",
                   path.c_str());
    }
    return 1;
  }
  return 0;
}
