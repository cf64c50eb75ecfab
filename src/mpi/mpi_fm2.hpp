// MPI over FM 2.x — the §4.1 design. The FM 2.x interface features map to
// MPI mechanics one-for-one:
//  * Gather: the 24-byte MPI header and the user payload are sent as two
//    pieces of one FM message — no staging assembly.
//  * Layer interleaving: the handler reads the header from the stream,
//    consults MPI's matching state, and receives the payload *directly into
//    the posted user buffer* — the single receive-side copy.
//  * Receiver flow control: data that MPI is not ready for stays unextracted
//    and withholds credits, so sender pacing replaces buffer-pool overruns.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>

#include "fm2/fm2.hpp"
#include "mpi/mpi.hpp"

namespace fmx::mpi {

struct MpiFm2Options {
  /// Ablation: pre-assemble [header|payload] in a contiguous staging buffer
  /// and send it as one piece, FM 1.x style, instead of gathering. Shows
  /// what the gather interface is worth (bench/ablation_features).
  bool staged_send = false;
  /// Messages larger than this use the rendezvous protocol (RTS -> CTS ->
  /// data): the payload is only transferred once the receive buffer is
  /// known, so large unexpected messages never get staged. Default: eager
  /// only (the paper-era MPI-FM protocol).
  std::size_t eager_threshold = ~std::size_t{0};
  /// Move rendezvous payloads with RDMA remote-memory writes: the CTS
  /// carries an rkey for the pinned receive buffer and the sender's NIC
  /// writes straight into it — zero host copies on either side (the FM
  /// host-staged stream path remains as the rdma=false ablation). Both
  /// sides negotiate: the payload goes RDMA only if sender and receiver
  /// enable it.
  bool rdma = true;
  /// Run barrier / bcast / reduce_sum / allreduce_sum inside the NIC
  /// control program (myrinet/coll.hpp): combining and fan-out forwarding
  /// happen NIC-to-NIC along a topology-derived tree and the host is
  /// interrupted once per operation. Off by default — the host-level
  /// dissemination/binomial algorithms are the ablation, and existing
  /// workloads keep bit-identical digests. Every rank's first offloaded
  /// collective triggers a lazy cluster-wide group join. Rooted ops with
  /// root != 0 and operands larger than MpiFm2::kCollMaxBytes fall back to
  /// the host-level path.
  bool nic_collectives = false;
  /// Tree fan-out (radix) for the NIC collective tree.
  int coll_radix = 4;
};

class MpiFm2 : public Comm {
 public:
  /// Layer MPI over an FM endpoint, which other libraries (sockets, shmem,
  /// ...) may share, each owning its handler ids — how the real FM was
  /// used. The endpoint must outlive this object.
  explicit MpiFm2(fm2::Endpoint& fm, MpiFm2Options opt = {});

  /// Largest collective operand the NIC group preallocates for (bytes).
  static constexpr std::size_t kCollMaxBytes = 2048;

  int rank() const override { return fm_.id(); }
  int size() const override { return fm_.cluster_size(); }
  sim::Task<void> host_compute(sim::Ps t) override {
    return fm_.host().compute(t);
  }
  fm2::Endpoint& fm() noexcept { return fm_; }

  // NIC-offloaded collectives (opt.nic_collectives). Rooted ops with
  // root != 0 or operands above kCollMaxBytes fall back to the host-level
  // base algorithms.
  sim::Task<void> barrier() override;
  sim::Task<void> bcast(MutByteSpan buf, int root) override;
  sim::Task<void> reduce_sum(std::span<double> data, int root) override;
  sim::Task<void> allreduce_sum(std::span<double> data) override;

 protected:
  sim::Task<void> do_send(ByteSpan data, int dst, int tag) override;
  sim::Task<Request> do_post_recv(MutByteSpan buf, int src,
                                  int tag) override;
  sim::Task<void> progress_until(std::function<bool()> done) override;
  sim::Task<void> progress_once() override;
  std::optional<Status> peek_unexpected(int src, int tag) override;

 private:
  static constexpr fm2::HandlerId kMpiHandler = 1;

  /// An unexpected arrival. Because FM 2.x handlers are interleaved with
  /// message reception, an arrival's envelope becomes matchable as soon as
  /// its header is read — possibly while its payload is still streaming in.
  /// A receive posted during that window claims the record and completes
  /// when the handler finishes buffering.
  struct UnexpectedArrival {
    int src = -1;
    int tag = 0;
    Bytes data;
    bool complete = false;
    std::shared_ptr<RequestState> claimed;  // posted while in flight
    std::byte* user_buf = nullptr;
    std::size_t user_cap = 0;
    // Rendezvous: this entry is an RTS envelope, not buffered data.
    bool is_rts = false;
    std::uint64_t rts_id = 0;
    std::size_t rts_bytes = 0;
    bool rts_rdma = false;  // sender offered the RDMA data path
  };

  struct PendingRdzvSend {
    bool cts = false;
    // RDMA negotiation result, carried by the CTS.
    bool use_rdma = false;
    std::uint32_t rkey = 0;
    bool done = false;  // receiver's DONE arrived (RDMA placement finished)
  };
  struct RdzvRecv {
    std::shared_ptr<RequestState> req;
    std::byte* buf = nullptr;
    int src = -1;
    int tag = 0;
    std::size_t bytes = 0;
    std::uint64_t id = 0;  // sender's rendezvous id (for the DONE reply)
    std::uint64_t mr = 0;  // pin-down handle (RDMA path)
  };

  fm2::HandlerTask on_message(fm2::RecvStream& s, int src);
  void complete(RequestState& st, int src, int tag, std::size_t count);
  void finish_unexpected(const std::shared_ptr<UnexpectedArrival>& ua);
  /// Accept an RTS whose receive buffer is known: record the rendezvous
  /// (posting the buffer as an RDMA target when both sides negotiate it)
  /// and return the CTS header to send back.
  MpiHeader grant_rts(int src, std::uint64_t id, int tag, std::size_t bytes,
                      std::byte* buf, std::shared_ptr<RequestState> req,
                      bool sender_rdma);
  /// NIC completion callback target for an RDMA rendezvous receive.
  void on_rdma_complete(std::uint64_t key);
  sim::Task<void> send_control(int to, MpiHeader h);
  /// True when this collective call should take the NIC-offloaded path.
  bool use_nic_coll(int root, std::size_t bytes) const noexcept {
    return opt_.nic_collectives && size() > 1 && root == 0 &&
           bytes <= kCollMaxBytes;
  }
  /// Lazily join the cluster-wide NIC collective group {0..size()-1}.
  /// Naturally collective: every rank's first offloaded collective is the
  /// same call, so all ranks join before any operation proceeds.
  sim::Task<void> ensure_coll_group();

  fm2::Endpoint& fm_;
  MpiFm2Options opt_;
  Matcher matcher_;  // posted queue only; unexpected_ replaces its queue
  std::deque<std::shared_ptr<UnexpectedArrival>> unexpected_;
  std::unordered_map<std::uint64_t, PendingRdzvSend> rdzv_sends_;
  std::unordered_map<std::uint64_t, RdzvRecv> rdzv_recvs_;
  std::uint64_t send_seq_ = 0;
  static constexpr std::uint32_t kCollGroupId = 0x4D504943;  // "MPIC"
  bool coll_joined_ = false;
};

}  // namespace fmx::mpi
