// CRC-32 (IEEE 802.3 polynomial, reflected), used to model Myrinet's
// per-packet CRC. Packets really carry and verify this checksum so the
// bit-error-injection tests can observe genuine detection behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fmx {

/// Incremental CRC-32. `crc32(data)` computes the checksum of a whole
/// buffer; the (seed, data) overload allows chunked computation:
///   crc = crc32_update(crc32_init(), chunk1); crc = crc32_update(crc, chunk2);
///   value = crc32_final(crc);
/// Chunk boundaries do not affect the result. The kernel is chosen once at
/// start-up from CPUID: on x86-64 with PCLMULQDQ and SSE4.1, spans of at
/// least 64 bytes fold 16-byte blocks by carry-less multiply and send the
/// tail through slice-by-8; everywhere else (and for shorter spans)
/// slice-by-8 (eight table lookups advance the state a full 8-byte word)
/// with a bytewise tail does all the work. Every kernel computes the same
/// value.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;

constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::byte> data) noexcept;
constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

namespace detail {
/// One-byte-at-a-time reference implementation; kept for tests (every
/// kernel below must agree with it on every input) and as the tail loop of
/// slice-by-8.
std::uint32_t crc32_update_bytewise(std::uint32_t state,
                                    std::span<const std::byte> data) noexcept;

/// Portable slice-by-8 kernel, any length.
std::uint32_t crc32_update_slice8(std::uint32_t state,
                                  std::span<const std::byte> data) noexcept;

/// Whether this CPU runs crc32_update_clmul (x86-64 with PCLMULQDQ and
/// SSE4.1). crc32_update uses that kernel exactly when this is true.
bool crc32_clmul_supported() noexcept;

/// Carry-less-multiply folding kernel, any length: spans of at least 64
/// bytes fold their 16-byte blocks, the rest goes through slice-by-8.
/// Call only when crc32_clmul_supported().
std::uint32_t crc32_update_clmul(std::uint32_t state,
                                 std::span<const std::byte> data) noexcept;
}  // namespace detail

}  // namespace fmx
