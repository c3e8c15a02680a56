// Fast-path IDS matching bench: packets/sec through sm::ids::Engine with
// the legacy linear rule scan, the rule-group index + Aho-Corasick
// fast-pattern prefilter, and the Auto cutover (which must match or beat
// the best fixed mode at every scale), at 10/100/1000-rule ruleset sizes.
// Auto exists because the fastpath bookkeeping was a net loss on tiny
// rulesets (0.92x at 10 rules); this bench calibrates
// ids::kAutoLinearMaxRules and gates the cutover's speedups as contrasts
// (see report.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "ids/engine.hpp"
#include "packet/packet.hpp"
#include "report.hpp"

using namespace sm;
using common::Ipv4Address;
using common::Rng;
using common::SimTime;
using packet::TcpFlags;

namespace {

struct PacketBox {
  common::Bytes storage;
  packet::Decoded decoded;
};

/// Keyword pool: rules draw patterns from here; payloads occasionally
/// embed one so the prefilter sees a realistic (low) hit rate.
const std::vector<std::string>& keywords() {
  static const std::vector<std::string> kw = [] {
    std::vector<std::string> out;
    const char* stems[] = {"falun",  "ultrasurf", "freegate", "beacon",
                           "tor",    "obfs4",     "vpn",      "proxy",
                           "tunnel", "psiphon",   "lantern",  "shadows"};
    for (int i = 0; i < 1024; ++i) {
      out.push_back(std::string(stems[i % 12]) + "-sig" + std::to_string(i));
    }
    return out;
  }();
  return kw;
}

/// A Snort-shaped ruleset: ~70% single-dst-port content rules (hash
/// buckets), ~20% any-port content rules (fallback + prefilter), ~10%
/// port-only rules without content.
std::vector<ids::Rule> make_ruleset(size_t n, Rng& rng) {
  std::string text;
  const auto& kw = keywords();
  for (size_t i = 0; i < n; ++i) {
    uint16_t port = static_cast<uint16_t>(1024 + (i * 7) % 4096);
    const std::string& pat = kw[i % kw.size()];
    double shape = rng.uniform();
    if (shape < 0.70) {
      text += "alert tcp any any -> any " + std::to_string(port) +
              " (msg:\"p" + std::to_string(i) + "\"; content:\"" + pat +
              "\"; nocase; sid:" + std::to_string(100000 + i) + ";)\n";
    } else if (shape < 0.90) {
      text += "alert tcp any any -> any any (msg:\"a" + std::to_string(i) +
              "\"; content:\"" + pat + "\"; sid:" +
              std::to_string(100000 + i) + ";)\n";
    } else {
      text += "drop tcp any any -> any " + std::to_string(port) +
              " (msg:\"b" + std::to_string(i) + "\"; dsize:>1400; sid:" +
              std::to_string(100000 + i) + ";)\n";
    }
  }
  auto parsed = ids::parse_rules(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "ruleset generation bug: %s\n",
                 parsed.errors[0].message.c_str());
    std::exit(1);
  }
  return std::move(parsed.rules);
}

/// Mixed traffic: mostly clean HTTP-ish payloads across the rule port
/// space, a few percent carrying a rule keyword.
std::vector<PacketBox> make_packets(size_t n, Rng& rng) {
  std::vector<PacketBox> out;
  out.reserve(n);
  const auto& kw = keywords();
  for (size_t i = 0; i < n; ++i) {
    std::string payload = "GET /index.html?session=";
    size_t filler = 200 + rng.bounded(400);
    for (size_t j = 0; j < filler; ++j)
      payload += static_cast<char>('a' + rng.bounded(26));
    if (rng.chance(0.03)) payload += " " + kw[rng.bounded(kw.size())];
    uint16_t dp = static_cast<uint16_t>(1024 + rng.bounded(4096));
    PacketBox box;
    packet::Packet p = packet::make_tcp(
        Ipv4Address(10, 0, static_cast<uint8_t>(rng.bounded(8)),
                    static_cast<uint8_t>(1 + rng.bounded(250))),
        Ipv4Address(192, 0, 2, 80),
        static_cast<uint16_t>(1024 + rng.bounded(60000)), dp, TcpFlags::kAck,
        static_cast<uint32_t>(i * 1000), 1, common::to_bytes(payload));
    box.storage = p.data();
    box.decoded = *packet::decode(box.storage);
    out.push_back(std::move(box));
  }
  return out;
}

struct RunResult {
  double pps = 0;
  ids::Engine::Stats stats;
};

/// Processes the packet set repeatedly until ~min_seconds elapsed.
RunResult run_engine(ids::Engine& engine,
                     const std::vector<PacketBox>& packets,
                     double min_seconds) {
  using clock = std::chrono::steady_clock;
  RunResult r;
  uint64_t processed = 0;
  int64_t t = 0;
  auto start = clock::now();
  double elapsed = 0;
  do {
    for (const auto& box : packets) {
      auto v = engine.process(SimTime(t += 1000), box.decoded);
      processed += 1;
    }
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  r.pps = static_cast<double>(processed) / elapsed;
  r.stats = engine.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("ids_fastpath", argc, argv);
  // Smoke mode (ci.sh perf stage) trades timing stability for speed.
  // The cutover tolerance 0.95 allows for the few percent two timed runs
  // of the same engine jitter on a busy machine; smoke mode's 4x-shorter
  // windows cannot resolve 5%, so it relaxes to 0.8 there, and the
  // baseline comparison catches real drift.
  const double min_seconds = metrics.smoke() ? 0.1 : 0.4;
  const double tol = metrics.smoke() ? 0.8 : 0.95;
  const size_t sizes[] = {10, 100, 1000};

  std::printf("IDS fast-path bench: linear scan vs port-group index + "
              "Aho-Corasick prefilter vs auto cutover\n\n");
  std::printf("%8s %16s %16s %16s %9s %9s %9s\n", "rules", "linear pps",
              "fastpath pps", "auto pps", "speedup", "auto x", "auto=");

  size_t diverged = 0;
  for (size_t n : sizes) {
    Rng rule_rng(42);
    Rng pkt_rng(1337);
    auto rules = make_ruleset(n, rule_rng);
    auto packets = make_packets(512, pkt_rng);

    ids::Engine linear(rules,
                       ids::EngineOptions{.mode = ids::MatchMode::Linear});
    ids::Engine fast(rules,
                     ids::EngineOptions{.mode = ids::MatchMode::Fastpath});
    ids::Engine auto_engine(rules, ids::EngineOptions{});  // Auto default

    RunResult lin = run_engine(linear, packets, min_seconds);
    RunResult fp = run_engine(fast, packets, min_seconds);
    RunResult au = run_engine(auto_engine, packets, min_seconds);
    double speedup = fp.pps / lin.pps;
    double auto_speedup = au.pps / lin.pps;

    // Verdict sanity: all engines must alert at the same per-packet rate
    // (stats are cumulative over different iteration counts).
    auto rate = [](const RunResult& r) {
      return static_cast<double>(r.stats.alerts) /
             static_cast<double>(r.stats.packets);
    };
    if (rate(lin) != rate(fp) || rate(lin) != rate(au)) {
      std::fprintf(stderr,
                   "alert rate diverged at %zu rules "
                   "(linear %.6f vs fastpath %.6f vs auto %.6f)\n",
                   n, rate(lin), rate(fp), rate(au));
      ++diverged;
    }

    std::printf("%8zu %16.0f %16.0f %16.0f %8.1fx %8.2fx %9s\n", n, lin.pps,
                fp.pps, au.pps, speedup, auto_speedup,
                auto_engine.fastpath_active() ? "fastpath" : "linear");
    const std::string at = common::format("@%zu", n);
    // The fastpath pays off at scale: >= 5x at 1000 rules.
    metrics.contrast("speedup" + at, speedup,
                     n == 1000 ? std::optional<double>(5.0) : std::nullopt);
    // Auto is never slower than linear on the small ruleset it falls back
    // for, and within noise of the best fixed mode at every scale.
    metrics.contrast("auto_speedup" + at, auto_speedup,
                     n == 10 ? std::optional<double>(tol) : std::nullopt);
    metrics.contrast("auto_vs_best" + at, au.pps / std::max(lin.pps, fp.pps),
                     tol);
  }
  metrics.invariant("alert_rate_divergences", diverged, 0, "rulesets");
  std::printf("\n");
  return metrics.finish();
}
