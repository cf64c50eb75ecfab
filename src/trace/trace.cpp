#include "trace/trace.hpp"

namespace fmx::trace {

const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::kSendEnqueue: return "send_enqueue";
    case EventType::kDmaStart:    return "dma_start";
    case EventType::kDmaEnd:      return "dma_end";
    case EventType::kWireHop:     return "wire_hop";
    case EventType::kDeliver:     return "deliver";
    case EventType::kCrcCheck:    return "crc_check";
    case EventType::kHandlerRun:  return "handler_run";
    case EventType::kExtract:     return "extract";
    case EventType::kRetransmit:  return "retransmit";
    case EventType::kDrop:        return "drop";
    case EventType::kMatch:       return "match";
    case EventType::kMsgDone:     return "msg_done";
    case EventType::kRdmaWrite:   return "rdma_write";
    case EventType::kRdmaDone:    return "rdma_done";
    case EventType::kCollSubmit:  return "coll_submit";
    case EventType::kCollCombine: return "coll_combine";
    case EventType::kCollForward: return "coll_forward";
    case EventType::kCollDone:    return "coll_done";
    case EventType::kCount:       break;
  }
  return "unknown";
}

const char* to_string(Layer l) noexcept {
  switch (l) {
    case Layer::kMpi:    return "mpi";
    case Layer::kFm2:    return "fm2";
    case Layer::kFm1:    return "fm1";
    case Layer::kNic:    return "nic";
    case Layer::kFabric: return "fabric";
    case Layer::kOther:  return "other";
    case Layer::kCount:  break;
  }
  return "unknown";
}

void Tracer::enable(std::size_t capacity_events) {
  std::size_t want = (capacity_events + kChunkEvents - 1) / kChunkEvents;
  if (want == 0) want = 1;
  while (chunks_.size() < want) chunks_.push_back(std::make_unique<Chunk>());
  clear();
  enabled_ = true;
}

void Tracer::clear() noexcept {
  head_chunk_ = head_off_ = 0;
  tail_chunk_ = tail_off_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void Tracer::push(const Event& e) {
  if (size_ == chunks_.size() * kChunkEvents) {
    // Ring full: recycle the oldest chunk wholesale before writing.
    std::size_t lost = kChunkEvents - head_off_;
    size_ -= lost;
    dropped_ += lost;
    head_off_ = 0;
    head_chunk_ = (head_chunk_ + 1) % chunks_.size();
  }
  (*chunks_[tail_chunk_])[tail_off_] = e;
  ++size_;
  if (++tail_off_ == kChunkEvents) {
    tail_off_ = 0;
    tail_chunk_ = (tail_chunk_ + 1) % chunks_.size();
  }
}

const Event& Tracer::at(std::size_t i) const noexcept {
  std::size_t off = head_off_ + i;
  std::size_t chunk = (head_chunk_ + off / kChunkEvents) % chunks_.size();
  return (*chunks_[chunk])[off % kChunkEvents];
}

std::vector<Event> Tracer::events() const {
  std::vector<Event> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
  return out;
}

std::vector<Event> merge_streams(
    const std::vector<std::vector<Event>>& streams) {
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  std::vector<Event> out;
  out.reserve(total);
  std::vector<std::size_t> cur(streams.size(), 0);
  // K is small (shard count); a linear scan per event beats a heap here
  // and keeps ties resolving in stream order by construction.
  for (std::size_t n = 0; n < total; ++n) {
    std::size_t best = streams.size();
    for (std::size_t k = 0; k < streams.size(); ++k) {
      if (cur[k] >= streams[k].size()) continue;
      if (best == streams.size() ||
          streams[k][cur[k]].t < streams[best][cur[best]].t) {
        best = k;
      }
    }
    out.push_back(streams[best][cur[best]++]);
  }
  return out;
}

}  // namespace fmx::trace
