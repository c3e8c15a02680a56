// Sim-time causal event graph: the provenance layer behind every verdict.
//
// The paper's safety argument is an attribution argument — a measurement
// is safe(r) only if an observer cannot causally link flagged traffic
// back to a participant. This graph records that linkage explicitly: a
// probe attempt causes a packet emission, the packet causes per-hop
// forward/drop/impairment events, taps (censor, IDS, MVR) hang their
// observations off the packet, and the final verdict references the
// evidence events conclude() actually used. Walking an alert's cause
// chain answers "was this alert caused by our probe or by background
// clutter?" — the question simcheck's O4 oracle and the sm-explain CLI
// both ask.
//
// The graph is the repo's one sim-time event log: to_chrome_json()
// renders it as a Chrome trace_event timeline (probe and attempt spans,
// every other event an instant) for chrome://tracing or Perfetto.
//
// Determinism contract (same as metrics): event ids are dense sequence
// numbers, timestamps are SimTime, and nothing wall-clock or
// address-dependent ever enters an event, so both exports are
// byte-identical across -j1/-jN and shard modes. Storage is a
// drop-oldest ring with a drops counter: long runs keep the most recent
// window and the export says exactly how much history fell off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace sm::obs {

enum class ProvKind : uint8_t {
  ProbeStart,   // a probe began (what = technique, detail = target)
  Attempt,      // one retry-ladder attempt (cause = probe-start)
  PacketSent,   // a packet entered a link (cause = attempt / censor / 0)
  Forward,      // a router forwarded the packet one hop
  Drop,         // router-level drop (tap verdict, TTL, no route)
  Impair,       // link impairment (loss, corruption, dup, flap)
  CensorAction, // censor rule hit / injection decision (detail = sid)
  IdsAlert,     // IDS rule match at the MVR (what = sid)
  MvrClassify,  // MVR traffic classification (what = class)
  MvrSample,    // MVR volume reduction kept this packet's content
  MvrDiscard,   // MVR volume reduction dropped this packet's class
  AlertStored,  // MVR stored an alert in a dossier (cause = ids-alert)
  Evidence,     // probe-side observation (reply, timeout) feeding conclude()
  Verdict,      // final conclusion (refs = evidence event ids)
};

std::string_view to_string(ProvKind kind);
std::optional<ProvKind> prov_kind_from_string(std::string_view s);

/// One node of the causal graph. `cause` is the primary causal parent
/// (0 = root, e.g. a probe start or unattributed background traffic);
/// `packet` is the id of the PacketSent event for the packet concerned
/// (0 = not packet-scoped). `refs` holds secondary causal links — the
/// evidence list on a Verdict event.
struct ProvEvent {
  uint64_t id = 0;
  uint64_t cause = 0;
  uint64_t packet = 0;
  common::SimTime ts{};
  ProvKind kind = ProvKind::ProbeStart;
  std::string what;
  std::string detail;
  std::vector<uint64_t> refs;
};

/// The recorder. Single-threaded like everything else inside one
/// testbed; campaign workers each own a private graph and the runner
/// merges exports in trial order, so parallelism never reorders events.
class ProvenanceGraph {
 public:
  explicit ProvenanceGraph(size_t capacity = 1 << 16);

  /// Records one event and returns its id. `cause` and `packet` are
  /// event ids from earlier record() calls, 0 for none.
  uint64_t record(ProvKind kind, common::SimTime ts, uint64_t cause,
                  uint64_t packet, std::string what,
                  std::string detail = "");
  /// Records a Verdict event carrying the evidence ids conclude() used.
  uint64_t record_verdict(common::SimTime ts, uint64_t cause,
                          std::string what, std::string detail,
                          std::vector<uint64_t> evidence);
  /// Records a PacketSent event, deriving `what` from the wire bytes
  /// ("tcp 10.0.0.1:1234>10.0.0.2:80"). The cause defaults to the
  /// current scope (see ScopedCause).
  uint64_t record_packet(common::SimTime ts, const uint8_t* data,
                         size_t len);

  /// Re-inserts a deserialized event verbatim (id preserved). Used by
  /// sm-explain and tests to rebuild a graph from its JSON export; ids
  /// must arrive in increasing order.
  void append_raw(ProvEvent ev);

  /// The ambient causal parent new PacketSent events attach to; set via
  /// ScopedCause by probes around their send paths and by taps around
  /// injections.
  uint64_t current_cause() const { return current_cause_; }

  size_t size() const { return count_; }
  /// Ids ever issued (== the id of the newest event).
  uint64_t total() const { return total_; }
  /// Events evicted because the ring was full.
  uint64_t dropped() const { return dropped_; }
  void clear();

  /// Retained events, oldest first.
  std::vector<ProvEvent> events() const;
  /// The event with this id, or nullptr if it was never issued or has
  /// been evicted from the ring.
  const ProvEvent* find(uint64_t id) const;
  /// Cause-chain walk from `id` to its root, inclusive ([id, ..., root]).
  /// Stops early if an ancestor has been evicted.
  std::vector<uint64_t> chain(uint64_t id) const;
  /// The last reachable ancestor of `id` (== id if it is a root). 0 when
  /// `id` is not retained.
  uint64_t root_of(uint64_t id) const;

  /// Byte-deterministic export:
  ///   {"events":[{"id":1,"cause":0,"packet":0,"t":0,"kind":"probe-start",
  ///               "what":"overt-http","detail":"...","refs":[...]},...],
  ///    "total":N,"dropped":N}
  /// ("detail"/"refs" appear only when non-empty; "t" is sim nanos.)
  std::string to_json() const;

 private:
  friend class ScopedCause;
  ProvEvent& push(ProvEvent ev);

  std::vector<ProvEvent> ring_;
  size_t next_ = 0;   // write position
  size_t count_ = 0;  // valid records (<= capacity)
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
  uint64_t current_cause_ = 0;
};

/// RAII ambient-cause scope: packets emitted while the scope is alive
/// get `cause` as their causal parent. Null graph makes it a no-op, so
/// call sites need no branches.
class ScopedCause {
 public:
  ScopedCause(ProvenanceGraph* graph, uint64_t cause)
      : graph_(graph), prev_(graph ? graph->current_cause_ : 0) {
    if (graph_) graph_->current_cause_ = cause;
  }
  ~ScopedCause() {
    if (graph_) graph_->current_cause_ = prev_;
  }
  ScopedCause(const ScopedCause&) = delete;
  ScopedCause& operator=(const ScopedCause&) = delete;

 private:
  ProvenanceGraph* graph_;
  uint64_t prev_;
};

/// One stored-alert attribution: the packet that triggered it and the
/// root of that packet's cause chain. `probe_caused` is true when the
/// root is a probe-start or attempt event — the alert traces back to
/// the measurement, not to background clutter.
struct AlertAttribution {
  uint64_t alert = 0;   // the AlertStored (or bare IdsAlert) event id
  uint64_t packet = 0;  // PacketSent event id (0 = unresolved)
  uint64_t root = 0;    // root of the packet's cause chain
  bool probe_caused = false;
};

/// Resolves every stored alert in the graph to its causing packet and
/// chain root. IdsAlert events whose alerts were discarded as noise are
/// skipped; each AlertStored resolves through its IdsAlert parent.
std::vector<AlertAttribution> attribute_alerts(const ProvenanceGraph& g);

/// Human-readable causal narrative of a whole graph: the verdict with
/// its evidence chain first, then every stored alert with its full
/// attribution chain. This is what `sm-explain` prints per trial.
std::string explain_text(const ProvenanceGraph& g);

/// Chrome trace_event JSON of the retained events, in sim time:
///   {"traceEvents":[...],"displayTimeUnit":"ms",
///    "otherData":{"clock":"sim","total":N,"dropped":N}}
/// Each probe is one "X" span from its probe-start to its verdict (args
/// technique, target, verdict, confidence) on its own tid, equal to the
/// probe-start id; each attempt is an "X" span nested in it, ending at
/// the probe's next attempt or its verdict. Every other event is an "i"
/// instant (args id, cause, packet, what, detail) on the tid of its
/// cause chain's root probe, or tid 0 when that root is not a retained
/// probe-start. A span with no retained end runs to the newest event.
/// ts/dur are sim microseconds with three decimals. Byte-deterministic.
std::string to_chrome_json(const ProvenanceGraph& g);

/// "tcp 10.0.0.1:1234>10.0.0.2:80"-style summary of an IPv4 datagram's
/// wire bytes (best-effort; never throws on truncated input).
std::string summarize_wire(const uint8_t* data, size_t len);

}  // namespace sm::obs
