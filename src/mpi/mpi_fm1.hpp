// MPI over FM 1.x — the "initial MPI-FM" of §3.2, faithful to its
// interface-induced inefficiencies:
//  * Send: FM 1.x accepts only one contiguous buffer, so MPI assembles
//    [24-byte header | payload] in a staging buffer first (extra copy #1).
//  * Receive: FM reassembles multi-packet messages into its own staging
//    area (copy #2, inside FM), and because "the required exchange of
//    information between the two layers was missing", the handler cannot
//    place data in the posted user buffer: it always copies into an
//    MPI-owned temporary (copy #3), from which the matching receive copies
//    into the user buffer (copy #4).
// On a host with slow copies this stack of memcpys is exactly what caps
// MPI-FM 1.x at a fraction of FM bandwidth (Figure 4).
#pragma once

#include "fm1/fm1.hpp"
#include "mpi/mpi.hpp"

namespace fmx::mpi {

class MpiFm1 : public Comm {
 public:
  /// Layer MPI over an FM 1.x endpoint, which other libraries may share.
  /// The endpoint must outlive this object.
  explicit MpiFm1(fm1::Endpoint& fm);

  int rank() const override { return fm_.id(); }
  int size() const override { return fm_.cluster_size(); }
  sim::Task<void> host_compute(sim::Ps t) override {
    return fm_.host().compute(t);
  }
  fm1::Endpoint& fm() noexcept { return fm_; }

 protected:
  sim::Task<void> do_send(ByteSpan data, int dst, int tag) override;
  sim::Task<Request> do_post_recv(MutByteSpan buf, int src,
                                  int tag) override;
  sim::Task<void> progress_until(std::function<bool()> done) override;
  sim::Task<void> progress_once() override;
  std::optional<Status> peek_unexpected(int src, int tag) override;

 private:
  static constexpr fm1::HandlerId kMpiHandler = 1;
  void on_message(int src, ByteSpan data);
  void complete(RequestState& st, int src, int tag, std::size_t count);

  fm1::Endpoint& fm_;
  Matcher matcher_;
  std::uint64_t send_seq_ = 0;
};

}  // namespace fmx::mpi
