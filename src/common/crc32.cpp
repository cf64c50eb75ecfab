#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fmx {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

// Slice-by-8 (Intel, "Novel Table Lookup-Based Algorithms for High-
// Performance CRC Generation"): tables[k][b] is the CRC contribution of
// byte b positioned k bytes before the end of an 8-byte block, so eight
// independent lookups advance the CRC a full 8 bytes per iteration.
// tables[0] is the classic bytewise table.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

#if defined(__x86_64__)
// Chosen once at start-up from CPUID. A call that runs before this
// initializer (another translation unit's static constructor) sees false
// and takes slice-by-8, which computes the same value.
bool detect_clmul() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
const bool kHaveClmul = detect_clmul();

// clmul_fold starts from four 16-byte lanes, so it needs 64 bytes.
constexpr std::size_t kClmulMinBytes = 64;

__m128i load16(const std::byte* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Fold 128-bit lane `x` forward by the distance `k` encodes onto `next`.
__attribute__((target("pclmul"))) __m128i fold(__m128i x, __m128i next,
                                               __m128i k) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, next), lo);
}

// Folds a span of 64 + 16k bytes into the running (pre-inverted) CRC
// state with carry-less multiplies: Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with
// the reflected IEEE fold and Barrett constants of zlib's crc32_simd.
// Four 128-bit lanes fold 64 bytes per iteration, collapse into one lane,
// fold the remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_fold(
    const std::byte* p, std::size_t n, std::uint32_t state) noexcept {
  // Powers of x mod P (bit-reflected) that shift a lane forward by 64
  // bytes (k1k2) or 16 bytes (k3k4), and the 64 -> 32-bit fold (k5).
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // Barrett pair: P in the low lane, its quotient constant mu in the high.
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;

  while (n >= 64) {
    x1 = fold(x1, load16(p), k1k2);
    x2 = fold(x2, load16(p + 16), k1k2);
    x3 = fold(x3, load16(p + 32), k1k2);
    x4 = fold(x4, load16(p + 48), k1k2);
    p += 64;
    n -= 64;
  }

  x1 = fold(x1, x2, k3k4);
  x1 = fold(x1, x3, k3k4);
  x1 = fold(x1, x4, k3k4);
  while (n >= 16) {
    x1 = fold(x1, load16(p), k3k4);
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  // 64 -> 32 bits.
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction to the 32-bit remainder.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_update_bytewise(std::uint32_t state,
                                    std::span<const std::byte> data) noexcept {
  for (std::byte b : data) {
    state = kTables[0][(state ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^
            (state >> 8);
  }
  return state;
}

std::uint32_t crc32_update_slice8(std::uint32_t state,
                                  std::span<const std::byte> data) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();

  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      word ^= state;
      state = kTables[7][word & 0xFFu] ^
              kTables[6][(word >> 8) & 0xFFu] ^
              kTables[5][(word >> 16) & 0xFFu] ^
              kTables[4][(word >> 24) & 0xFFu] ^
              kTables[3][(word >> 32) & 0xFFu] ^
              kTables[2][(word >> 40) & 0xFFu] ^
              kTables[1][(word >> 48) & 0xFFu] ^
              kTables[0][(word >> 56) & 0xFFu];
      p += 8;
      n -= 8;
    }
  }
  return crc32_update_bytewise(state, {p, n});
}

bool crc32_clmul_supported() noexcept {
#if defined(__x86_64__)
  return kHaveClmul;
#else
  return false;
#endif
}

std::uint32_t crc32_update_clmul(std::uint32_t state,
                                 std::span<const std::byte> data) noexcept {
#if defined(__x86_64__)
  if (data.size() >= kClmulMinBytes) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    state = clmul_fold(data.data(), folded, state);
    data = data.subspan(folded);
  }
#endif
  return crc32_update_slice8(state, data);
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::byte> data) noexcept {
  return detail::crc32_clmul_supported()
             ? detail::crc32_update_clmul(state, data)
             : detail::crc32_update_slice8(state, data);
}

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace fmx
