// Refcounted, immutable view of a pooled byte block — the zero-copy
// currency of the simulator's data plane. A packet payload, a NIC's
// retained go-back-N copy, and a receiver-side sub-slice can all alias the
// same underlying block; only the *modeled* memcpy cost (Host::copy /
// Host::charge_copy) moves, not the bytes.
//
// Sharing rules:
//  - Reads go through the implicit ByteSpan view; they never copy.
//  - Writes go through mutable_bytes(), which clones the visible view
//    first iff the block is shared (copy-on-write). Fault-injected bit
//    errors on one hop therefore can never leak into sibling references.
//  - The CRC-32 over a whole-block view is memoized in the block header
//    (sealed once at WirePacket::make time) and invalidated by any
//    mutable_bytes() call, so multi-hop delivery verifies integrity with a
//    32-bit compare instead of re-hashing the payload.
//
// Blocks come from a BufferPool (intrusive header, steady state stays
// allocation-free) or stand alone (copy_of). Refcounts are intentionally
// non-atomic: a block's references never cross shard threads — the
// cross-shard SPSC path copies the bytes and drops the source reference at
// the boundary.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/buffer.hpp"
#include "common/crc32.hpp"

namespace fmx {

class BufferPool;

namespace detail {

/// Header living immediately before the data bytes of every block — except
/// for *external* blocks (BufferRef::borrow), whose header stands alone and
/// points at caller-owned memory (a pinned/registered user buffer on the
/// RDMA path). External blocks are never pool-backed.
struct BlockHeader {
  std::uint32_t refs = 0;
  std::uint32_t capacity = 0;   ///< data bytes that follow this header
  std::uint32_t size = 0;       ///< logical size of the whole-block view
  std::uint32_t crc = 0;        ///< memoized crc32 over data()[0, crc_len)
  std::uint32_t crc_len = 0;
  bool crc_valid = false;
  BufferPool* pool = nullptr;   ///< owner; nullptr = free-standing block
  std::byte* ext = nullptr;     ///< external data; nullptr = bytes follow

  std::byte* data() noexcept {
    return ext != nullptr ? ext : reinterpret_cast<std::byte*>(this + 1);
  }
  const std::byte* data() const noexcept {
    return ext != nullptr ? ext
                          : reinterpret_cast<const std::byte*>(this + 1);
  }
};

/// Allocate a free-standing block (refs=1, size=capacity, pool=nullptr).
BlockHeader* alloc_block(std::size_t capacity);
void free_block(BlockHeader* h) noexcept;

}  // namespace detail

class BufferRef {
 public:
  BufferRef() noexcept = default;

  BufferRef(const BufferRef& o) noexcept : h_(o.h_), off_(o.off_), len_(o.len_) {
    if (h_ != nullptr) ++h_->refs;
  }
  BufferRef& operator=(const BufferRef& o) noexcept {
    if (o.h_ != nullptr) ++o.h_->refs;  // order-safe under self-assignment
    drop();
    h_ = o.h_;
    off_ = o.off_;
    len_ = o.len_;
    return *this;
  }
  BufferRef(BufferRef&& o) noexcept
      : h_(std::exchange(o.h_, nullptr)),
        off_(std::exchange(o.off_, 0)),
        len_(std::exchange(o.len_, 0)) {}
  BufferRef& operator=(BufferRef&& o) noexcept {
    if (this != &o) {
      drop();
      h_ = std::exchange(o.h_, nullptr);
      off_ = std::exchange(o.off_, 0);
      len_ = std::exchange(o.len_, 0);
    }
    return *this;
  }
  ~BufferRef() { drop(); }

  const std::byte* data() const noexcept {
    return h_ != nullptr ? h_->data() + off_ : nullptr;
  }
  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  ByteSpan span() const noexcept { return {data(), len_}; }
  operator ByteSpan() const noexcept { return span(); }  // NOLINT(google-explicit-constructor)

  /// References (including this one) sharing the underlying block.
  std::uint32_t use_count() const noexcept {
    return h_ != nullptr ? h_->refs : 0;
  }

  /// Release this reference now (last one out returns the block).
  void reset() noexcept {
    drop();
    h_ = nullptr;
    off_ = 0;
    len_ = 0;
  }

  /// A view of [off, off+n) sharing the same block.
  BufferRef subslice(std::size_t off, std::size_t n) const noexcept {
    assert(off + n <= len_);
    if (h_ == nullptr) return {};
    ++h_->refs;
    return BufferRef{h_, static_cast<std::uint32_t>(off_ + off),
                     static_cast<std::uint32_t>(n)};
  }

  /// Writable bytes of this view. Clones the visible range iff the block
  /// is shared — or external, whose caller-owned bytes are read-only
  /// through borrowed views — so siblings never observe the write; always
  /// invalidates the block's CRC memo.
  MutByteSpan mutable_bytes() {
    if (h_ == nullptr) return {};
    if (h_->refs > 1 || h_->ext != nullptr) cow_clone();
    h_->crc_valid = false;
    return {h_->data() + off_, len_};
  }

  /// Shrink/grow (within capacity) a unique whole-block view, e.g. an FM
  /// send buffer sealed at less than the segment-size estimate.
  void set_size(std::size_t n) noexcept {
    assert(h_ != nullptr && h_->refs == 1 && off_ == 0 &&
           n <= h_->capacity);
    h_->size = static_cast<std::uint32_t>(n);
    h_->crc_valid = false;
    len_ = static_cast<std::uint32_t>(n);
  }

  /// CRC-32 of the view; memoized in the header for whole-from-offset-0
  /// views (the wire-packet case), recomputed for sub-slices.
  std::uint32_t crc() const noexcept {
    if (h_ == nullptr) return crc32(ByteSpan{});
    if (off_ == 0) {
      if (!h_->crc_valid || h_->crc_len != len_) {
        h_->crc = crc32(span());
        h_->crc_len = len_;
        h_->crc_valid = true;
      }
      return h_->crc;
    }
    return crc32(span());
  }

  /// Free-standing deep copy (not pool-backed) of caller bytes, for
  /// payloads built outside any pool, such as test fixtures.
  static BufferRef copy_of(ByteSpan src);

  /// Borrow caller-owned memory with ZERO physical copy: the returned ref
  /// (and every subslice of it) reads the caller's bytes in place. This is
  /// the RDMA pin-down contract — the memory must stay valid and unmodified
  /// until every reference is gone; use_count() lets the owner wait for
  /// that (registration release). Writes through mutable_bytes() still COW
  /// into a private internal block, so the caller's memory is never
  /// modified through a borrowed view.
  static BufferRef borrow(ByteSpan src);

  /// Wrap a producer-initialized block (refs already 1).
  static BufferRef adopt(detail::BlockHeader* h) noexcept {
    return BufferRef{h, 0, h != nullptr ? h->size : 0};
  }

 private:
  BufferRef(detail::BlockHeader* h, std::uint32_t off, std::uint32_t len) noexcept
      : h_(h), off_(off), len_(len) {}

  void drop() noexcept {
    if (h_ != nullptr && --h_->refs == 0) release_block(h_);
  }

  void cow_clone();                                        // out of line
  static void release_block(detail::BlockHeader* h) noexcept;  // out of line

  detail::BlockHeader* h_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

}  // namespace fmx
