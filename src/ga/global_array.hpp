// A small Global Arrays layer over Shmem-FM (paper §4.2 names Global
// Arrays among the APIs implemented on FM 2.x). A dense row-major matrix of
// doubles is block-row distributed across PEs; put/get/accumulate move
// arbitrary rectangular patches with one-sided shmem operations.
#pragma once

#include <memory>
#include <vector>

#include "shmem/shmem.hpp"

namespace fmx::ga {

class GlobalArray {
 public:
  /// Construct the local view of a (rows x cols) global array of doubles.
  /// Every PE must construct it identically (collective, like GA_Create);
  /// `heap_off` is the symmetric heap offset reserved for this array.
  GlobalArray(shmem::ShmemCtx& ctx, std::size_t rows, std::size_t cols,
              std::size_t heap_off = 0);

  std::size_t rows() const noexcept { return rows_; }
  /// Rows [row_begin, row_end) held by PE `pe`.
  std::size_t row_begin(int pe) const;
  std::size_t row_end(int pe) const;
  int owner_of(std::size_t row) const;

  /// Write a (nrows x cols_) patch starting at global row `row0`.
  sim::Task<void> put_rows(std::size_t row0, std::size_t nrows,
                           std::span<const double> data);
  /// Read a (nrows x cols_) patch starting at global row `row0`.
  sim::Task<void> get_rows(std::size_t row0, std::size_t nrows,
                           std::span<double> out);
  /// Element-wise += into a row patch.
  sim::Task<void> acc_rows(std::size_t row0, std::size_t nrows,
                           std::span<const double> data);
  /// Complete outstanding puts/accumulates.
  sim::Task<void> flush() { return ctx_.quiet(); }

  /// Direct access to the locally-owned block.
  std::span<double> local_rows();

 private:
  std::size_t heap_off_of(std::size_t row) const;

  shmem::ShmemCtx& ctx_;
  std::size_t rows_;
  std::size_t cols_;
  std::size_t heap_off_;
  std::size_t rows_per_pe_;
};

}  // namespace fmx::ga
