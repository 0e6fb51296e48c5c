// FNV-1a, the one non-cryptographic hash of the on-disk and wire formats:
// the .tvc/.tvf content hashes and digests, the journal's jobs_digest, the
// supervisor's quarantine keys and backoff jitter -- and of the waveform
// intern table. The format values are persisted or compared across
// processes, so this function must stay bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace tv {

inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// Folds `n` bytes at `data` into the running hash `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = kFnv1aBasis) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// A hash as the 16 lower-case hex digits the journal and quarantine keys use.
inline std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace tv
