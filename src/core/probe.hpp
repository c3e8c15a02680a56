// Probe interface: every measurement technique is a Probe that runs
// inside a Testbed's event loop.
#pragma once

#include <memory>

#include "core/testbed.hpp"
#include "core/verdict.hpp"

namespace sm::core {

class Probe {
 public:
  virtual ~Probe() = default;

  /// Kicks the measurement off (schedules its first packets).
  virtual void start() = 0;
  /// True once a verdict is available.
  virtual bool done() const = 0;
  /// Valid after done().
  virtual ProbeReport report() const = 0;

 protected:
  /// Lifetime token. A probe's scheduled timers and reply handlers can
  /// outlive it (a caller running several probes on one testbed frees
  /// each before starting the next, while its timeout events still sit
  /// in the engine queue),
  /// so every [this]-capturing callback handed to the event loop must
  /// also capture guard() and return immediately if it has expired.
  std::weak_ptr<void> guard() const { return alive_; }

 private:
  std::shared_ptr<void> alive_ = std::make_shared<char>('\0');
};

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
  uint64_t start_id() const { return start_; }
  /// Causal parent for packets being sent right now: the latest attempt
  /// (or the probe start before any attempt was recorded).
  uint64_t attempt_id() const { return attempt_; }

 private:
  obs::ProvenanceGraph* graph_ = nullptr;
  uint64_t start_ = 0;
  uint64_t attempt_ = 0;
  std::vector<uint64_t> evidence_;
};

/// Starts `probe` and drives the testbed until it finishes (or the
/// timeout elapses, in which case whatever partial report exists is
/// returned).
ProbeReport run_probe(Testbed& tb, Probe& probe,
                      common::Duration timeout = common::Duration::seconds(60));

}  // namespace sm::core
