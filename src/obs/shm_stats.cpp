#include "obs/shm_stats.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>

#include "common/defs.hpp"
#include "common/spin.hpp"

namespace bdhtm::obs {
namespace {

constexpr std::size_t kPage = 4096;
/// How long StatsReader::sample keeps retrying torn reads.
constexpr std::uint64_t kSampleTimeoutNs = 200'000'000;

std::uint8_t* payload_of(StatsHeader* h) {
  return reinterpret_cast<std::uint8_t*>(h) + sizeof(StatsHeader);
}
const std::uint8_t* payload_of(const StatsHeader* h) {
  return reinterpret_cast<const std::uint8_t*>(h) + sizeof(StatsHeader);
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t b[8];
  std::memcpy(b, &v, 8);  // little-endian on every supported target
  out.insert(out.end(), b, b + 8);
}

/// [kind][name_len][name][values...]; silently drops oversized names
/// (none of ours approach 255) and records that would overflow `cap`.
void append_record(std::vector<std::uint8_t>& out, std::size_t cap,
                   StatsKind kind, std::string_view name,
                   const std::uint64_t* values, std::size_t n_values) {
  if (name.size() > 255) return;
  const std::size_t need = 2 + name.size() + 8 * n_values;
  if (out.size() + need > cap) return;
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(static_cast<std::uint8_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
  for (std::size_t i = 0; i < n_values; ++i) append_u64(out, values[i]);
}

std::size_t values_per_kind(std::uint8_t kind) {
  switch (static_cast<StatsKind>(kind)) {
    case StatsKind::kCounter:
    case StatsKind::kGauge:
      return 1;
    case StatsKind::kHistogram:
      return 7;
    case StatsKind::kSession:
      return 3;
  }
  return 0;  // unknown kind: caller stops decoding
}

}  // namespace

const std::uint64_t* StatsSample::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const std::int64_t* StatsSample::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

const StatsSample::Hist* StatsSample::hist(std::string_view name) const {
  for (const auto& h : hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// StatsPublisher

StatsPublisher::~StatsPublisher() { close(); }

bool StatsPublisher::create(const std::string& path, std::size_t payload_cap) {
  close();
  std::size_t total = sizeof(StatsHeader) + payload_cap;
  total = (total + kPage - 1) & ~(kPage - 1);

  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  void* map =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    ::unlink(path.c_str());
    return false;
  }

  hdr_ = new (map) StatsHeader{};
  hdr_->server_pid = static_cast<std::uint32_t>(::getpid());
  hdr_->payload_cap = static_cast<std::uint32_t>(total - sizeof(StatsHeader));
  hdr_->start_ns = now_ns();
  hdr_->version = kStatsVersion;
  // Magic last, release: a reader that sees the magic sees a complete
  // header (the seqlock covers only the payload).
  std::atomic_thread_fence(std::memory_order_release);
  hdr_->magic = kStatsMagic;
  map_bytes_ = total;
  path_ = path;
  return true;
}

// Cross-process seqlock: TSan cannot see the reader, and the in-process
// tests pair a publisher thread with a reader thread on the same
// mapping, which TSan would (correctly, for plain memcpy) flag — the
// seqlock generation check is the synchronization it cannot model.
BDHTM_NO_SANITIZE_THREAD
void StatsPublisher::publish(const Registry::Snapshot& snap,
                             const std::vector<SessionRow>& sessions) {
  if (hdr_ == nullptr) return;
  const std::size_t cap = hdr_->payload_cap;

  staging_.clear();
  for (const auto& [name, v] : snap.counters) {
    append_record(staging_, cap, StatsKind::kCounter, name, &v, 1);
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::uint64_t u = static_cast<std::uint64_t>(v);
    append_record(staging_, cap, StatsKind::kGauge, name, &u, 1);
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::uint64_t vals[7] = {h.count,         h.sum,
                                   h.min,           h.max,
                                   h.quantile(0.5), h.quantile(0.95),
                                   h.quantile(0.99)};
    append_record(staging_, cap, StatsKind::kHistogram, name, vals, 7);
  }
  for (const auto& s : sessions) {
    const std::uint64_t vals[3] = {s.pid, s.state, s.ops};
    append_record(staging_, cap, StatsKind::kSession, s.name, vals, 3);
  }

  // Seqlock write: odd generation (acq_rel RMW keeps the payload copy
  // from hoisting above it), copy, even generation (release orders the
  // copy before the reader can accept it).
  hdr_->seq.fetch_add(1, std::memory_order_acq_rel);
  std::memcpy(payload_of(hdr_), staging_.data(), staging_.size());
  hdr_->payload_bytes = static_cast<std::uint32_t>(staging_.size());
  hdr_->publish_ns = now_ns();
  hdr_->seq.fetch_add(1, std::memory_order_release);
}

void StatsPublisher::close() {
  if (hdr_ != nullptr) {
    ::munmap(hdr_, map_bytes_);
    ::unlink(path_.c_str());
    hdr_ = nullptr;
    map_bytes_ = 0;
    path_.clear();
  }
}

// ---------------------------------------------------------------------------
// StatsReader

StatsReader::~StatsReader() { close(); }

bool StatsReader::open(const std::string& path) {
  close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      st.st_size < static_cast<off_t>(sizeof(StatsHeader))) {
    ::close(fd);
    return false;
  }
  const std::size_t total = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, total, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return false;

  const auto* h = static_cast<const StatsHeader*>(map);
  if (h->magic != kStatsMagic || h->version != kStatsVersion ||
      sizeof(StatsHeader) + h->payload_cap > total) {
    ::munmap(map, total);
    return false;
  }
  hdr_ = h;
  map_bytes_ = total;
  return true;
}

BDHTM_NO_SANITIZE_THREAD
bool StatsReader::sample(StatsSample& out) const {
  if (hdr_ == nullptr) return false;

  std::vector<std::uint8_t> buf;
  std::uint64_t publish_ns = 0;
  bool consistent = false;
  // Torn reads retry with backoff until a time bound, not a count: a
  // publisher rewriting in a tight loop starves a reader that retries
  // back to back (a slow, e.g. sanitized, copy loses every race), while a
  // publisher that died mid-write must not wedge the reader either.
  const std::uint64_t deadline_ns = now_ns() + kSampleTimeoutNs;
  Backoff backoff(64, 4096);
  for (int attempt = 0; !consistent; ++attempt) {
    if (attempt > 0) {
      if (now_ns() >= deadline_ns) return false;
      backoff.pause();
    }
    const std::uint32_t s1 = hdr_->seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) continue;  // publish in flight
    const std::uint32_t n = hdr_->payload_bytes;
    if (n > hdr_->payload_cap) continue;  // torn header field
    buf.assign(payload_of(hdr_), payload_of(hdr_) + n);
    publish_ns = hdr_->publish_ns;
    std::atomic_thread_fence(std::memory_order_acquire);
    consistent = hdr_->seq.load(std::memory_order_relaxed) == s1;
  }

  out = StatsSample{};
  out.server_pid = hdr_->server_pid;
  out.start_ns = hdr_->start_ns;
  out.publish_ns = publish_ns;

  std::size_t i = 0;
  while (i + 2 <= buf.size()) {
    const std::uint8_t kind = buf[i];
    const std::uint8_t name_len = buf[i + 1];
    const std::size_t n_values = values_per_kind(kind);
    if (n_values == 0) return false;  // unknown kind: treat as malformed
    const std::size_t need = 2 + name_len + 8 * n_values;
    if (i + need > buf.size()) return false;
    std::string name(reinterpret_cast<const char*>(&buf[i + 2]), name_len);
    std::uint64_t vals[7] = {};
    for (std::size_t v = 0; v < n_values; ++v) {
      std::memcpy(&vals[v], &buf[i + 2 + name_len + 8 * v], 8);
    }
    switch (static_cast<StatsKind>(kind)) {
      case StatsKind::kCounter:
        out.counters.emplace_back(std::move(name), vals[0]);
        break;
      case StatsKind::kGauge:
        out.gauges.emplace_back(std::move(name),
                                static_cast<std::int64_t>(vals[0]));
        break;
      case StatsKind::kHistogram:
        out.hists.push_back({std::move(name), vals[0], vals[1], vals[2],
                             vals[3], vals[4], vals[5], vals[6]});
        break;
      case StatsKind::kSession:
        out.sessions.push_back({std::move(name),
                                static_cast<std::uint32_t>(vals[0]),
                                static_cast<std::uint32_t>(vals[1]), vals[2]});
        break;
    }
    i += need;
  }
  return i == buf.size();
}

void StatsReader::close() {
  if (hdr_ != nullptr) {
    ::munmap(const_cast<StatsHeader*>(hdr_), map_bytes_);
    hdr_ = nullptr;
    map_bytes_ = 0;
  }
}

}  // namespace bdhtm::obs
