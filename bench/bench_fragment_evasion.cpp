// E12 — ablation: IP-fragmentation evasion of the keyword censor
// (Khattak et al. [26], cited by the paper for censorship-monitor
// reassembly limits).
//
// A keyword-bearing request is IP-fragmented at descending MTUs and sent
// through the censor twice: fragment-blind (the historical posture the
// evasion literature exploits) and with virtual defragmentation. The
// table shows exactly when the keyword stops being visible to a
// fragment-blind censor — and that defragmentation closes the hole at
// the cost of per-datagram reassembly state.
#include <cstdio>

#include "analysis/report.hpp"
#include "core/probe.hpp"
#include "core/testbed.hpp"
#include "packet/fragment.hpp"
#include "report.hpp"

using namespace sm;

namespace {

struct Outcome {
  size_t fragments = 0;
  bool caught = false;
};

Outcome run(size_t mtu, bool defrag) {
  core::TestbedConfig cfg;
  cfg.policy = censor::gfc_profile();
  cfg.policy.reassemble_ip_fragments = defrag;
  core::Testbed tb(cfg);

  std::string req = "GET /search?q=falun HTTP/1.1\r\nHost: x\r\n\r\n";
  packet::IpOptions opt;
  opt.dont_fragment = false;
  opt.identification = 4242;
  packet::Packet p = packet::make_tcp(
      tb.addr().client, tb.addr().web_blocked, 5555, 80,
      packet::TcpFlags::kAck, 1000, 1, common::to_bytes(req), opt);
  auto frags = packet::fragment(p, mtu);
  Outcome out;
  out.fragments = frags.size();
  for (auto& f : frags) tb.client->send(std::move(f));
  tb.run_for(common::Duration::millis(100));
  out.caught = tb.censor_tap->stats().rst_bursts > 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report metrics("fragment_evasion", argc, argv);
  std::printf("E12 — keyword visibility under IP fragmentation "
              "(keyword \"falun\" at TCP payload offset 13)\n\n");

  analysis::Table table({"MTU (bytes)", "fragments", "fragment-blind "
                         "censor caught it", "defragmenting censor "
                         "caught it"});
  size_t blind_evaded = 0, defrag_missed = 0, unfragmented_caught = 0;
  for (size_t mtu : {1500, 120, 80, 56, 48}) {
    Outcome blind = run(mtu, false);
    Outcome defrag = run(mtu, true);
    if (!blind.caught && blind.fragments > 1) ++blind_evaded;
    if (!defrag.caught) ++defrag_missed;
    if (blind.fragments == 1 && blind.caught) ++unfragmented_caught;
    table.add_row({analysis::Table::num(uint64_t(mtu)),
                   analysis::Table::num(uint64_t(blind.fragments)),
                   blind.caught ? "yes" : "NO (evaded)",
                   defrag.caught ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("reading: once the keyword straddles a fragment boundary, a "
              "fragment-blind censor goes dark;\nvirtual defragmentation "
              "restores detection at every MTU.\n\n");
  metrics.anchor("mtus_evading_blind_censor", blind_evaded, "mtus", 1,
                 bench::kUnbounded);
  metrics.invariant("mtus_missed_by_defrag", defrag_missed, 0, "mtus");
  metrics.anchor("unfragmented_mtus_caught", unfragmented_caught, "mtus", 1,
                 bench::kUnbounded);
  return metrics.finish();
}
