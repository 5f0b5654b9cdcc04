// Observability: live shared-memory stats export (DESIGN.md §13).
//
// The server periodically serializes its metrics Registry (plus per-
// session IPC state) into a file-backed shared segment; `bdhtm_top`
// maps the same file read-only and renders it live. The segment is a
// seqlock-guarded snapshot:
//
//   [StatsHeader | payload bytes]
//
// The header's `seq` field is the seqlock generation: odd while the
// publisher is copying a staged snapshot in, even when the payload is
// consistent. Readers sample seq, copy the payload out, then re-check
// seq — a change (or an odd value) means a torn read, so retry. The
// publisher is a single low-rate thread (default 100 ms tick), so
// retries are vanishingly rare; the reader never blocks the server and
// a dead reader cannot wedge the writer (no handshake, no locks).
//
// The payload is a flat run of self-describing records, so bdhtm_top
// needs no JSON parser and tolerates metric names it has never heard
// of:
//
//   [u8 kind][u8 name_len][name bytes][n_values x u64 little-endian]
//
//   kind 1 counter    1 value  (total)
//   kind 2 gauge      1 value  (int64 bit-cast)
//   kind 3 histogram  7 values (count, sum, min, max, p50, p95, p99)
//   kind 4 session    3 values (pid, state, ops)
//
// Quantiles are evaluated at publish time: shipping 7 u64s per
// histogram keeps the segment small and spares the reader the bucket
// table. Unknown kinds are skipped via the record length, so the format
// is forward-extensible without a version bump.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace bdhtm::obs {

inline constexpr std::uint64_t kStatsMagic = 0x314C'5453'4D48'4442ull;  // "BDHMSTL1"
inline constexpr std::uint32_t kStatsVersion = 1;

struct StatsHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t server_pid = 0;
  std::atomic<std::uint32_t> seq{0};  // seqlock: odd = publish in progress
  std::uint32_t payload_cap = 0;      // bytes available after the header
  std::uint32_t payload_bytes = 0;    // valid bytes (seqlock-guarded)
  std::uint32_t reserved = 0;
  std::uint64_t publish_ns = 0;       // CLOCK_MONOTONIC of last publish
  std::uint64_t start_ns = 0;         // CLOCK_MONOTONIC at segment creation
};
static_assert(sizeof(StatsHeader) == 48, "wire-visible layout");

enum class StatsKind : std::uint8_t {
  kCounter = 1,
  kGauge = 2,
  kHistogram = 3,
  kSession = 4,
};

/// One decoded segment snapshot (reader side).
struct StatsSample {
  std::uint32_t server_pid = 0;
  std::uint64_t publish_ns = 0;
  std::uint64_t start_ns = 0;

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  struct Hist {
    std::string name;
    std::uint64_t count, sum, min, max, p50, p95, p99;
  };
  std::vector<Hist> hists;
  struct Session {
    std::string name;
    std::uint32_t pid, state;
    std::uint64_t ops;
  };
  std::vector<Session> sessions;

  /// Linear scans — the segment holds a few dozen entries.
  const std::uint64_t* counter(std::string_view name) const;
  const std::int64_t* gauge(std::string_view name) const;
  const Hist* hist(std::string_view name) const;
};

/// Server side: owns the file-backed mapping and republishes snapshots.
class StatsPublisher {
 public:
  struct SessionRow {
    std::string name;
    std::uint32_t pid = 0;
    std::uint32_t state = 0;
    std::uint64_t ops = 0;
  };

  StatsPublisher() = default;
  ~StatsPublisher();
  StatsPublisher(const StatsPublisher&) = delete;
  StatsPublisher& operator=(const StatsPublisher&) = delete;

  /// Create (or truncate) the segment file and map it. payload_cap is
  /// rounded up to a page multiple together with the header.
  bool create(const std::string& path, std::size_t payload_cap = 1 << 16);

  /// Serialize `snap` + `sessions` and copy it into the segment under
  /// the seqlock. Records that would overflow payload_cap are dropped
  /// (counters first in, sessions last — the fixed families all fit in
  /// the default 64 KiB by orders of magnitude).
  void publish(const Registry::Snapshot& snap,
               const std::vector<SessionRow>& sessions);

  bool valid() const { return hdr_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Unmap and unlink the segment file.
  void close();

 private:
  std::string path_;
  StatsHeader* hdr_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::vector<std::uint8_t> staging_;
};

/// Reader side (bdhtm_top, tests): maps the segment read-only.
class StatsReader {
 public:
  StatsReader() = default;
  ~StatsReader();
  StatsReader(const StatsReader&) = delete;
  StatsReader& operator=(const StatsReader&) = delete;

  /// Map `path`. Fails on missing file, bad magic, or version mismatch.
  bool open(const std::string& path);

  /// Decode one seqlock-consistent snapshot. Returns false if the
  /// segment never stabilized within 200 ms of backed-off retries
  /// (publisher died mid-write) or the payload is malformed.
  bool sample(StatsSample& out) const;

  void close();
  bool valid() const { return hdr_ != nullptr; }

 private:
  const StatsHeader* hdr_ = nullptr;
  std::size_t map_bytes_ = 0;
};

}  // namespace bdhtm::obs
