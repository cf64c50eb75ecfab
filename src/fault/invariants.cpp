#include "fault/invariants.hpp"

#include <sstream>

#include "common/crc32.hpp"

namespace fmx::fault {

namespace {

std::string stream_name(int src, int dst) {
  std::ostringstream os;
  os << "stream " << src << "->" << dst;
  return os.str();
}

}  // namespace

void InvariantLedger::note_sent(int src, int dst, ByteSpan payload) {
  Stream& s = stream(src, dst);
  s.outstanding.push_back(MsgRec{s.sent++,
                                 static_cast<std::uint32_t>(payload.size()),
                                 crc32(payload)});
  ++sent_total_;
}

void InvariantLedger::note_delivered(int src, int dst, ByteSpan payload) {
  Stream& s = stream(src, dst);
  ++s.delivered;
  ++delivered_total_;
  std::ostringstream os;
  if (s.outstanding.empty()) {
    os << stream_name(src, dst) << ": delivery #" << s.delivered
       << " with nothing outstanding (duplicate or phantom message)";
    violation(os.str());
    return;
  }
  const MsgRec expect = s.outstanding.front();
  const std::uint32_t got_crc = crc32(payload);
  if (expect.size == payload.size() && expect.crc == got_crc) {
    s.outstanding.pop_front();
    return;
  }
  // Mismatch at the head: decide between reorder/loss (the delivered bytes
  // match a message deeper in the queue) and corruption (they match none).
  for (std::size_t i = 1; i < s.outstanding.size(); ++i) {
    const MsgRec& m = s.outstanding[i];
    if (m.size == payload.size() && m.crc == got_crc) {
      os << stream_name(src, dst) << ": message #" << m.id
         << " delivered while #" << expect.id
         << " is still outstanding (out-of-order or lost message)";
      violation(os.str());
      // Resynchronize on the matched message so one fault reports once.
      s.outstanding.erase(s.outstanding.begin(),
                          s.outstanding.begin() +
                              static_cast<std::ptrdiff_t>(i + 1));
      return;
    }
  }
  os << stream_name(src, dst) << ": delivery #" << s.delivered << " ("
     << payload.size() << " B, crc " << std::hex << got_crc
     << ") matches no outstanding message; head is #" << std::dec
     << expect.id << " (" << expect.size << " B, crc " << std::hex
     << expect.crc << ") — payload corrupted in transit";
  violation(os.str());
  s.outstanding.pop_front();  // assume the head was the victim
}

void InvariantLedger::check_streams() {
  for (auto& [key, s] : streams_) {
    if (s.outstanding.empty()) continue;
    std::ostringstream os;
    os << stream_name(key.first, key.second) << ": " << s.outstanding.size()
       << " message(s) sent but never delivered (first missing #"
       << s.outstanding.front().id << "; " << s.delivered << "/" << s.sent
       << " arrived)";
    violation(os.str());
  }
}

void InvariantLedger::check_engine(const sim::Engine& eng) {
  if (eng.pending_roots() > 0) {
    std::ostringstream os;
    os << "engine: event queue drained with " << eng.pending_roots()
       << " root task(s) still suspended — deadlock (t=" << sim::to_us(
              eng.now())
       << " us, " << eng.events_processed() << " events)";
    violation(os.str());
  }
}

void InvariantLedger::check_nic(const net::Nic& nic) {
  std::ostringstream os;
  os << "nic " << nic.id() << ": ";
  if (nic.sram_rx_free() != nic.params().sram_rx_slots) {
    std::ostringstream v;
    v << os.str() << nic.params().sram_rx_slots - nic.sram_rx_free()
      << " of " << nic.params().sram_rx_slots
      << " inbound SRAM slack token(s) never returned (orphaned slot)";
    violation(v.str());
  }
  if (nic.host_ring_depth() != 0) {
    std::ostringstream v;
    v << os.str() << nic.host_ring_depth()
      << " packet(s) left in the host receive ring (undrained)";
    violation(v.str());
  }
  if (nic.tx_backlog() != 0) {
    std::ostringstream v;
    v << os.str() << nic.tx_backlog()
      << " send descriptor(s) stuck in the NIC (tx queue/SRAM)";
    violation(v.str());
  }
  if (nic.rx_staged() != 0) {
    std::ostringstream v;
    v << os.str() << nic.rx_staged()
      << " packet(s) staged after CRC check but never DMAed to the host";
    violation(v.str());
  }
  if (nic.unacked() != 0) {
    std::ostringstream v;
    v << os.str() << nic.unacked()
      << " packet(s) retained in the go-back-N window (never acked)";
    violation(v.str());
  }
}

void InvariantLedger::check_host_ledger(const net::Host& host, int id) {
  const sim::CostLedger& l = host.ledger();
  sim::Ps sum = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(sim::Cost::kCount);
       ++i) {
    sum += l.of(static_cast<sim::Cost>(i));
  }
  if (sum != l.total()) {
    std::ostringstream os;
    os << "host " << id << ": cost ledger inconsistent (categories sum to "
       << sum << " ps, total says " << l.total() << " ps)";
    violation(os.str());
  }
}

void InvariantLedger::check_cluster(net::ParallelCluster& cluster) {
  for (int i = 0; i < cluster.size(); ++i) {
    check_nic(cluster.node(i).nic());
    check_host_ledger(cluster.node(i).host(), i);
  }
}

void InvariantLedger::check_fm2_pair(const fm2::Endpoint& sender,
                                     const fm2::Endpoint& receiver) {
  const int window = sender.config().credits_per_peer;
  const int held = sender.credits_available(receiver.id());
  const int owed = receiver.credits_pending_return(sender.id());
  if (held + owed != window) {
    std::ostringstream os;
    os << "fm2 credits " << sender.id() << "->" << receiver.id()
       << ": sender holds " << held << ", receiver owes " << owed
       << ", window is " << window << " — " << (held + owed < window
                                                    ? "leaked"
                                                    : "fabricated")
       << " credit(s)";
    violation(os.str());
  }
  if (receiver.parked_packets() != 0) {
    std::ostringstream os;
    os << "fm2 endpoint " << receiver.id() << ": " << receiver.parked_packets()
       << " packet(s) parked host-side and never ingested";
    violation(os.str());
  }
  if (receiver.backlogged_packets() != 0) {
    std::ostringstream os;
    os << "fm2 endpoint " << receiver.id() << ": "
       << receiver.backlogged_packets()
       << " packet(s) backlogged behind an unfinished message";
    violation(os.str());
  }
}

std::string InvariantLedger::report() const {
  if (violations_.empty()) return "all invariants hold";
  std::ostringstream os;
  os << violations_.size() << " invariant violation(s):\n";
  for (const std::string& v : violations_) os << "  - " << v << "\n";
  return os.str();
}

}  // namespace fmx::fault
