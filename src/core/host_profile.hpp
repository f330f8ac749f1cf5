// The execution host, as the autotuner and bench artifacts see it: core
// count, cache hierarchy sizes, and the toolchain that generated the
// code. The fingerprint keys TuningCache entries (a tuned plan
// is a fact about one machine + one build) and stamps every BENCH_*.json
// so cross-host numbers are comparable.
#pragma once

#include <cstdint>
#include <string>

namespace fpga_stencil {

class JsonWriter;  // common/json.hpp; reference-only here

struct HostProfile {
  int cores = 1;                ///< std::thread::hardware_concurrency
  std::int64_t l1_bytes = 0;    ///< per-core L1 data cache
  std::int64_t l2_bytes = 0;    ///< per-core (or per-cluster) L2
  std::int64_t llc_bytes = 0;   ///< last-level cache (L3, or L2 when no L3)
  /// Every build targets the baseline ISA (no -march=native, so no FMA
  /// contraction and bit-exact kernels). Kept as a constant so the
  /// "native_arch" key of the bench host block and the "-portable-" part
  /// of the fingerprint stay byte-identical for existing TuningCache files.
  static constexpr bool native_arch = false;
  std::string compiler;         ///< e.g. "gcc 13.2.0"

  /// Stable identity string, e.g. "c8-l1:32k-l2:512k-llc:16384k-portable-
  /// gcc_13.2.0". Two hosts (or two builds) with equal fingerprints may
  /// share tuned plans; anything else invalidates them.
  [[nodiscard]] std::string fingerprint() const;
};

/// The detected profile of this process's host, probed once (sysconf /
/// /sys cache topology with conservative fallbacks when the kernel hides
/// them) and cached for the process lifetime.
const HostProfile& host_profile();

/// Emits `"host": {...}` (cores, cache sizes, native_arch, compiler,
/// fingerprint) into an open JSON object -- the block every BENCH_*.json
/// exporter records since schema_version 2.
void write_host_profile(JsonWriter& w);

}  // namespace fpga_stencil
