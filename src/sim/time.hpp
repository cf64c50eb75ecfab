// Simulated time. The engine runs in integer picoseconds so per-byte costs
// like "12.99 ns/B" (77 MB/s) are representable without rounding drift.
#pragma once

#include <cstdint>

namespace fmx::sim {

/// Picoseconds of simulated time.
using Ps = std::uint64_t;

constexpr Ps kPsPerNs = 1'000;
constexpr Ps kPsPerUs = 1'000'000;
constexpr Ps kPsPerMs = 1'000'000'000;
constexpr Ps kPsPerSec = 1'000'000'000'000ull;

constexpr Ps ns(double v) noexcept {
  return static_cast<Ps>(v * static_cast<double>(kPsPerNs));
}
constexpr Ps us(double v) noexcept {
  return static_cast<Ps>(v * static_cast<double>(kPsPerUs));
}
constexpr Ps ms(double v) noexcept {
  return static_cast<Ps>(v * static_cast<double>(kPsPerMs));
}
constexpr Ps seconds(double v) noexcept {
  return static_cast<Ps>(v * static_cast<double>(kPsPerSec));
}

constexpr double to_ns(Ps t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kPsPerNs);
}
constexpr double to_us(Ps t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kPsPerUs);
}
constexpr double to_seconds(Ps t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kPsPerSec);
}

}  // namespace fmx::sim
