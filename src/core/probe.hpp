// Probe interface: every measurement technique is a Probe that runs
// inside a Testbed's event loop.
#pragma once

#include <memory>
#include <string_view>

#include "core/testbed.hpp"
#include "core/verdict.hpp"

namespace sm::core {

/// Per-probe provenance recorder: the uniform shape every probe family
/// uses to hang its lifecycle on the causal graph. All methods no-op on
/// a null graph, so probes instrument unconditionally.
///
///   prov_.begin(tb.prov_sink(), now, report_);   // ProbeStart (root)
///   prov_.attempt(now, n);                       // Attempt, child of start
///   obs::ScopedCause c(prov_.graph(), prov_.attempt_id());
///   ...send packets...                           // PacketSent <- attempt
///   prov_.evidence(now, "rst");                  // Evidence <- attempt
///   prov_.verdict(now, report_);                 // Verdict, refs=evidence
class ProbeProvenance {
 public:
  void begin(obs::ProvenanceGraph* graph, common::SimTime now,
             const ProbeReport& report) {
    graph_ = graph;
    if (graph_ == nullptr) return;
    start_ = graph_->record(obs::ProvKind::ProbeStart, now, 0, 0,
                            report.technique, report.target);
    attempt_ = start_;  // sends before the first attempt() chain to start
  }
  uint64_t attempt(common::SimTime now, size_t number) {
    if (graph_ == nullptr) return 0;
    attempt_ = graph_->record(obs::ProvKind::Attempt, now, start_, 0,
                              "attempt", std::to_string(number));
    return attempt_;
  }
  uint64_t evidence(common::SimTime now, std::string what,
                    std::string detail = "") {
    if (graph_ == nullptr) return 0;
    uint64_t id = graph_->record(obs::ProvKind::Evidence, now, attempt_, 0,
                                 std::move(what), std::move(detail));
    evidence_.push_back(id);
    return id;
  }
  void verdict(common::SimTime now, const ProbeReport& report) {
    if (graph_ == nullptr) return;
    graph_->record_verdict(
        now, start_, std::string(to_string(report.verdict)),
        std::string(to_string(report.confidence.conclusion)) +
            (report.confidence.confirmed() ? " confirmed" : ""),
        evidence_);
  }

  obs::ProvenanceGraph* graph() const { return graph_; }
  /// Causal parent for packets being sent right now: the latest attempt
  /// (or the probe start before any attempt was recorded).
  uint64_t attempt_id() const { return attempt_; }

 private:
  obs::ProvenanceGraph* graph_ = nullptr;
  uint64_t start_ = 0;
  uint64_t attempt_ = 0;
  std::vector<uint64_t> evidence_;
};

/// A measurement technique. The base owns what every probe shares: the
/// report, the provenance recorder, the done flag, lifetime-guarded
/// callbacks, the attempt ladder's plumbing and the verdict tail. A
/// probe supplies launch() and decides what each answer or silence
/// means.
class Probe {
 public:
  virtual ~Probe() = default;
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Records ProbeStart, then kicks the measurement off (launch()).
  void start();
  /// True once a verdict is available and any awaited cover is out.
  bool done() const { return done_ && cover_due_ == 0; }
  /// Valid after done().
  ProbeReport report() const { return report_; }

 protected:
  Probe(Testbed& tb, std::string technique, std::string target,
        size_t samples);

  /// Schedules the measurement's first packets.
  virtual void launch() = 0;

  common::SimTime now() const { return tb_.net.engine().now(); }

  /// Wraps a callback for the event loop so that it runs only while the
  /// probe is alive and not done. A probe's timers and reply handlers
  /// can outlive it (a caller running several probes on one testbed
  /// frees each before starting the next, while its timeout events still
  /// sit in the engine queue), so every callback that reaches `this`
  /// goes through here.
  template <typename Fn>
  auto guarded(Fn fn) {
    return [this, alive = std::weak_ptr<void>(alive_),
            fn = std::move(fn)](auto&&... args) {
      if (!alive.expired() && !done())
        fn(std::forward<decltype(args)>(args)...);
    };
  }
  /// Runs `fn`, guarded, after `delay` of simulated time.
  template <typename Fn>
  void after(common::Duration delay, Fn fn) {
    tb_.net.engine().schedule(delay, guarded(std::move(fn)));
  }

  /// Starts attempt `ladder.attempts()`: counts it in the report and
  /// records the Attempt event that causes what the attempt sends.
  void begin_attempt(const AttemptLadder& ladder = AttemptLadder{});
  /// Climbs `ladder` and runs `again` after the backoff gap, unless the
  /// probe is done by then. Returns false when the ladder ran dry.
  template <typename Fn>
  bool retry(AttemptLadder& ladder, Fn again) {
    if (!ladder.can_climb()) return false;
    after(ladder.climb(), std::move(again));
    return true;
  }

  /// Concludes the measurement once: fills verdict, detail and
  /// confidence, counts every sample blocked when `v` is a blocking
  /// verdict (probes that tally samples one by one set samples_blocked
  /// afterwards), records `evidence` (with the detail) when given, then
  /// the Verdict event.
  void finish(Verdict v, std::string detail, Confidence confidence,
              std::string_view evidence = {});

  /// Cover traffic done() waits for: a probe that spreads cover around
  /// its measurement expects `n` emissions and marks each one sent.
  void expect_cover(size_t n) { cover_due_ = n; }
  void cover_emitted() { --cover_due_; }

  Testbed& tb_;
  ProbeReport report_;
  ProbeProvenance prov_;

 private:
  std::shared_ptr<void> alive_ = std::make_shared<char>('\0');
  bool done_ = false;
  size_t cover_due_ = 0;
};

/// Starts `probe` and drives the testbed until it finishes (or the
/// timeout elapses, in which case whatever partial report exists is
/// returned).
ProbeReport run_probe(Testbed& tb, Probe& probe,
                      common::Duration timeout = common::Duration::seconds(60));

}  // namespace sm::core
