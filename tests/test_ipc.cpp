// Shared-memory transport robustness (DESIGN.md §12). The heart of the
// suite is the never-wedge proof: real client PROCESSES (fork + exec of
// tools/ipc_client) SIGKILLed at every ClientFaultPlan protocol point —
// and mid-lease — while surviving clients keep submitting. The server
// must reclaim every dead session (ipc.reclaims == kills), keep serving
// the survivors, and after a post-close media crash recover exactly the
// acknowledged durable prefix reconstructed from the clients' own ack
// logs. Children are spawned fork+exec (nothing but async-signal-safe
// calls between fork and execv), so the suite is TSan-compatible; the
// exec'd binary itself never links the instrumented library.
#include <dirent.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "ipc/client.hpp"
#include "ipc/server.hpp"
#include "obs/metrics.hpp"
#include "obs/shm_stats.hpp"
#include "obs/trace.hpp"

namespace bdhtm {
namespace {

#if defined(__SANITIZE_THREAD__)
#define BDHTM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BDHTM_TSAN 1
#endif
#endif

std::uint64_t splitmix64_local(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
/// Must match tools/ipc_client value_of(): the ack log + this function
/// is the complete recovery oracle.
std::uint64_t value_of(std::uint64_t key) {
  return splitmix64_local(key) | 1;
}

using test::World;

World ipc_world() {
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 500;  // fast durable release for kDurable acks
  ecfg.flusher_threads = 1;
  return World(test::strict_device(32ull << 20), ecfg);
}

svc::KVStoreConfig ipc_store_cfg(int sessions) {
  svc::KVStoreConfig cfg;
  cfg.backend = svc::Backend::kHash;
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.clients = sessions;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  cfg.shard_opt.hash_initial_depth = 2;
  return cfg;
}

std::string make_rendezvous_dir() {
  char tmpl[] = "/tmp/bdhtm-ipc-XXXXXX";
  const char* d = mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return d != nullptr ? d : "";
}

void remove_dir(const std::string& dir) {
  // Arenas are unlinked by their owners; anything left is a corpse from
  // a failed assertion path.
  if (DIR* dp = opendir(dir.c_str())) {
    while (dirent* e = readdir(dp)) {
      if (e->d_name[0] == '.') continue;
      ::unlink((dir + "/" + e->d_name).c_str());
    }
    closedir(dp);
  }
  ::rmdir(dir.c_str());
}

/// fork + exec tools/ipc_client (path baked in by CMake). Only
/// async-signal-safe calls between fork and exec.
pid_t spawn_client(const std::vector<std::string>& extra) {
  static const char* bin = BDHTM_IPC_CLIENT_BIN;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin));
  for (const auto& a : extra) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(bin, argv.data());
    _exit(127);
  }
  return pid;
}

struct Ack {
  std::uint32_t op = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint32_t status = 0;
  std::uint32_t ok = 0;
  std::uint64_t complete_epoch = 0;
};

std::vector<Ack> parse_acks(const std::string& path) {
  std::vector<Ack> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2 || line[0] != 'A') continue;
    Ack a;
    std::istringstream ss(line.substr(2));
    ss >> a.op >> a.key >> a.value >> a.status >> a.ok >> a.complete_epoch;
    if (!ss.fail()) out.push_back(a);
  }
  return out;
}

int wait_exit(pid_t pid, bool* killed) {
  int st = 0;
  waitpid(pid, &st, 0);
  if (killed != nullptr) {
    *killed = WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL;
  }
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

std::uint64_t counter_total(const char* name) {
  return obs::Registry::global().counter(name).total();
}

// ---------------------------------------------------------------------
// In-process round trip: slot state machine, typed statuses, goodbye.
TEST(Ipc, InProcessRoundTrip) {
  World w = ipc_world();
  svc::KVStore store(*w.es, ipc_store_cfg(2));
  const std::string dir = make_rendezvous_dir();
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = 2;
  scfg.poll_us = 500;
  ipc::ShmServer server(store, scfg);

  ipc::ShmClient cli;
  ASSERT_EQ(cli.connect(dir), ipc::ShmClient::Err::kOk);
  ipc::ShmClient::Reply rep;
  ASSERT_EQ(cli.call(ipc::kOpPut, 7, 42, &rep), ipc::ShmClient::Err::kOk);
  EXPECT_EQ(rep.status, ipc::kStOk);
  EXPECT_TRUE(rep.ok);
  EXPECT_GT(rep.complete_epoch, 0u);
  ASSERT_EQ(cli.call(ipc::kOpGet, 7, 0, &rep), ipc::ShmClient::Err::kOk);
  EXPECT_EQ(rep.status, ipc::kStOk);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.value, 42u);
  ASSERT_EQ(cli.call(ipc::kOpGet, 8, 0, &rep), ipc::ShmClient::Err::kOk);
  EXPECT_EQ(rep.status, ipc::kStNotFound);
  ASSERT_EQ(cli.call(ipc::kOpRemove, 7, 0, &rep), ipc::ShmClient::Err::kOk);
  EXPECT_EQ(rep.status, ipc::kStOk);
  EXPECT_TRUE(rep.ok);
  cli.disconnect();

  server.close();
  store.close();
  remove_dir(dir);
}

// Bounded arena: with every slot in flight submit() sheds client-side;
// the slot resolves with the store's typed verdict (kRejected here: the
// store's drainers are never started, so close() sweeps the queue). One
// slot keeps the test independent of when the session scans: there is
// only ever one request to pick.
TEST(Ipc, ClientSideShedAndTypedRejection) {
  World w = ipc_world();
  svc::KVStoreConfig cfg = ipc_store_cfg(2);
  cfg.start_workers = false;
  svc::KVStore store(*w.es, cfg);
  const std::string dir = make_rendezvous_dir();
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = 2;
  scfg.poll_us = 500;
  ipc::ShmServer server(store, scfg);

  ipc::ShmClient cli;
  ipc::ShmClient::Options opt;
  opt.slots = 1;
  ASSERT_EQ(cli.connect(dir, opt), ipc::ShmClient::Err::kOk);
  const int s0 = cli.submit(ipc::kOpPut, 1, 10);
  ASSERT_GE(s0, 0);
  // Wait until the session thread has queued it in the store (where it
  // parks: the store's drainers are never started), so the close sweep
  // — not close-time admission — is what resolves it. The session is
  // the store's client kv_client_base + 0.
  for (int spin = 0; store.queued(scfg.kv_client_base) == 0; ++spin) {
    ASSERT_LT(spin, 10'000);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The slot is in flight -> client-side shed, no syscall, no server.
  EXPECT_EQ(cli.submit(ipc::kOpPut, 2, 20), -1);
  // Unstick the in-flight op: the close sweep resolves it kRejected and
  // the verdict must travel the wire typed, not as a timeout.
  store.close();
  ipc::ShmClient::Reply rep;
  ASSERT_EQ(cli.wait(s0, &rep), ipc::ShmClient::Err::kOk);
  EXPECT_EQ(rep.status, ipc::kStRejected);
  // The slot freed by wait(): submit works again (and resolves kClosed).
  const int s1 = cli.submit(ipc::kOpPut, 2, 20);
  ASSERT_GE(s1, 0);
  ASSERT_EQ(cli.wait(s1, &rep), ipc::ShmClient::Err::kOk);
  EXPECT_EQ(rep.status, ipc::kStClosed);
  cli.disconnect();
  server.close();
  remove_dir(dir);
}

// Registry-full and hostile-garbage hellos are refused with a typed
// verdict; a valid client still connects afterwards (the acceptor never
// wedges on garbage).
TEST(Ipc, RefusesRegistryFullAndGarbageArenas) {
  World w = ipc_world();
  svc::KVStore store(*w.es, ipc_store_cfg(1));
  const std::string dir = make_rendezvous_dir();
  const std::uint64_t refused0 = counter_total("ipc.sessions.refused");
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = 1;
  scfg.poll_us = 500;
  ipc::ShmServer server(store, scfg);

  // Hostile arena: header-sized file full of garbage.
  {
    const std::string gpath = dir + "/garbage.arena";
    std::FILE* f = std::fopen(gpath.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::vector<char> junk(ipc::kHeaderBytes, '\x5a');
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  // Undersized file with the right suffix: ignored, never mapped.
  {
    std::FILE* f = std::fopen((dir + "/tiny.arena").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("x", f);
    std::fclose(f);
  }

  ipc::ShmClient a;
  ASSERT_EQ(a.connect(dir), ipc::ShmClient::Err::kOk);
  ipc::ShmClient b;
  ipc::ShmClient::Options fastfail;
  fastfail.connect_timeout_ns = 2'000'000'000ULL;
  EXPECT_EQ(b.connect(dir, fastfail), ipc::ShmClient::Err::kConnect)
      << "registry of 1 must refuse the second hello";
  EXPECT_GE(counter_total("ipc.sessions.refused"), refused0 + 2)
      << "garbage + registry-full refusals both counted";
  // The surviving session still works.
  ipc::ShmClient::Reply rep;
  ASSERT_EQ(a.call(ipc::kOpPut, 5, 55, &rep), ipc::ShmClient::Err::kOk);
  EXPECT_EQ(rep.status, ipc::kStOk);
  a.disconnect();
  server.close();
  store.close();
  remove_dir(dir);
}

// ---------------------------------------------------------------------
// The acceptance-criteria proof. Two survivor processes keep submitting
// while five clients die: one per ClientFaultPlan point plus one
// SIGKILLed mid-lease by the test. Assertions: every kill reclaimed
// (ipc.reclaims delta == 5), survivors finish all their ops, a fresh
// probe round-trips after the storm (no wedged session or shard
// worker), and after server close + media crash the recovered state
// contains every acknowledged durable put from every client, dead or
// alive (release policy kDurable: an ack IS a durability promise).
TEST(Ipc, NeverWedgeUnderClientKillStorm) {
  World w = ipc_world();
  svc::KVStoreConfig dcfg = ipc_store_cfg(8);
  dcfg.release = svc::ReleasePolicy::kDurable;
  auto store = std::make_unique<svc::KVStore>(*w.es, dcfg);
  const std::string dir = make_rendezvous_dir();
  const std::uint64_t reclaims0 = counter_total("ipc.reclaims");

  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = 8;
  scfg.lease_us = 60'000'000;  // leases off the critical path: ESRCH path
  scfg.poll_us = 1'000;
  auto server = std::make_unique<ipc::ShmServer>(*store, scfg);

#ifdef BDHTM_TSAN
  const int kSurvivorOps = 60;
#else
  const int kSurvivorOps = 240;
#endif
  auto log_path = [&](const char* n) { return dir + "/" + n + ".log"; };
  std::vector<pid_t> survivors;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "s" + std::to_string(i);
    survivors.push_back(spawn_client({
        "--dir=" + dir,
        "--slots=8",
        "--flight=4",
        "--ops=" + std::to_string(kSurvivorOps),
        "--key-base=" + std::to_string(1'000'000 * (i + 1)),
        "--mode=put",
        "--log=" + log_path(name.c_str()),
    }));
  }
  // One victim per fault point. kWhileParked triggers on the first park
  // (kDurable acks outlast the spin phase, so parking is guaranteed);
  // the publish-side points trigger on their 3rd crossing so a couple
  // of their ops are acknowledged first — those must survive recovery.
  std::vector<pid_t> victims;
  for (int p = 1; p <= 4; ++p) {
    const std::string name = "v" + std::to_string(p);
    const int at = p == static_cast<int>(
                            ipc::ClientFaultPoint::kWhileParked)
                       ? 1
                       : 3;
    victims.push_back(spawn_client({
        "--dir=" + dir,
        "--slots=4",
        "--flight=1",
        "--ops=100000",
        "--key-base=" + std::to_string(10'000'000 * p),
        "--mode=put",
        "--fault-point=" + std::to_string(p),
        "--fault-at=" + std::to_string(at),
        "--log=" + log_path(name.c_str()),
    }));
  }
  // Mid-lease victim: goes idle (heartbeating, so the lease stays live)
  // after 5 acks; the test SIGKILLs it there — death while holding a
  // healthy leased session, detected by ESRCH.
  const pid_t midlease = spawn_client({
      "--dir=" + dir,
      "--slots=4",
      "--flight=1",
      "--ops=100000",
      "--key-base=50000000",
      "--mode=put",
      "--idle-after=5",
      "--idle-ms=60000",
      "--idle-heartbeat",
      "--log=" + log_path("vm"),
  });
  for (int spin = 0; parse_acks(log_path("vm")).size() < 5; ++spin) {
    ASSERT_LT(spin, 20'000) << "mid-lease victim never reached 5 acks";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(kill(midlease, SIGKILL), 0);

  for (pid_t pid : survivors) {
    bool killed = false;
    EXPECT_EQ(wait_exit(pid, &killed), 0) << "survivor must finish clean";
    EXPECT_FALSE(killed);
  }
  bool killed = false;
  wait_exit(midlease, &killed);
  EXPECT_TRUE(killed);
  for (pid_t pid : victims) {
    wait_exit(pid, &killed);
    EXPECT_TRUE(killed) << "fault-plan victim must have SIGKILLed itself";
  }

  // Every kill becomes exactly one reclaim; bounded wait, never a hang.
  for (int spin = 0;
       counter_total("ipc.reclaims") - reclaims0 < 5; ++spin) {
    ASSERT_LT(spin, 30'000) << "reclaims: expected 5, got "
                            << counter_total("ipc.reclaims") - reclaims0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter_total("ipc.reclaims") - reclaims0, 5u);

  // No wedged session thread / shard worker: a fresh client round-trips.
  const std::uint64_t probe_key = 90'000'001;
  {
    ipc::ShmClient probe;
    ASSERT_EQ(probe.connect(dir), ipc::ShmClient::Err::kOk)
        << "all sessions must have been reclaimed for the probe to fit";
    ipc::ShmClient::Reply rep;
    ASSERT_EQ(probe.call(ipc::kOpPut, probe_key, value_of(probe_key), &rep),
              ipc::ShmClient::Err::kOk)
        << "post-storm probe wedged";
    EXPECT_EQ(rep.status, ipc::kStOk);
    probe.disconnect();
  }

  // The acknowledged-prefix oracle: every kOk put ack in any log (dead
  // or surviving client) was a kDurable ack => survives the crash.
  std::map<std::uint64_t, std::uint64_t> expect;
  std::size_t survivor_acks = 0;
  const char* logs[] = {"s0", "s1", "v1", "v2", "v3", "v4", "vm"};
  for (const char* n : logs) {
    for (const Ack& a : parse_acks(log_path(n))) {
      if (a.op == ipc::kOpPut && a.status == ipc::kStOk) {
        expect[a.key] = a.value;
        if (n[0] == 's') ++survivor_acks;
      }
    }
  }
  EXPECT_EQ(survivor_acks,
            static_cast<std::size_t>(2 * kSurvivorOps))
      << "survivors' ops must all have been acknowledged";
  expect[probe_key] = value_of(probe_key);

  server->close();
  store->close();
  server.reset();
  store.reset();

  w.crash_and_attach();
  const std::uint64_t frontier =
      epoch::EpochSys::recovery_frontier(w.es->persisted_epoch());
  svc::KVStoreConfig vcfg = ipc_store_cfg(1);
  vcfg.start_workers = false;
  svc::KVStore verify(*w.es, vcfg);
  verify.recover(2);
  const auto& rep = w.es->last_recovery();
  EXPECT_EQ(rep.blocks_quarantined, 0u);
  EXPECT_EQ(rep.checksum_failures, 0u);
  (void)frontier;
  for (const auto& [k, v] : expect) {
    auto got = verify.shard(verify.shard_of(k)).find(k);
    ASSERT_TRUE(got.has_value())
        << "acknowledged durable put lost: key " << k;
    EXPECT_EQ(*got, v) << "wrong recovered value for key " << k;
  }
  remove_dir(dir);
}

// A session whose client stops heartbeating — without dying — is
// reclaimed when the lease expires (deadman contract); the client's
// next call reports ServerGone instead of hanging.
TEST(Ipc, LeaseExpiryReclaimsSilentClient) {
  World w = ipc_world();
  svc::KVStore store(*w.es, ipc_store_cfg(2));
  const std::string dir = make_rendezvous_dir();
  const std::uint64_t lease0 = counter_total("ipc.lease_expirations");
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = 2;
  scfg.lease_us = 100'000;  // 100 ms lease
  scfg.poll_us = 1'000;
  ipc::ShmServer server(store, scfg);

  ipc::ShmClient cli;
  ASSERT_EQ(cli.connect(dir), ipc::ShmClient::Err::kOk);
  ipc::ShmClient::Reply rep;
  ASSERT_EQ(cli.call(ipc::kOpPut, 1, 11, &rep), ipc::ShmClient::Err::kOk);
  // Silence: no calls, no heartbeat() — the lease must expire.
  for (int spin = 0;
       counter_total("ipc.lease_expirations") == lease0; ++spin) {
    ASSERT_LT(spin, 10'000) << "lease never expired";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(cli.call(ipc::kOpPut, 2, 22, &rep),
            ipc::ShmClient::Err::kServerGone)
      << "post-reclaim call must be a typed ServerGone, not a hang";
  cli.disconnect();
  server.close();
  store.close();
  remove_dir(dir);
}

// ---------------------------------------------------------------------
// Server-side media crash under live remote clients: recovery must be
// exactly the acknowledged prefix filtered by the recovery frontier —
// acks whose complete_epoch is beyond it roll back wholesale, acks
// within it are all present (kBuffered: acks outrun durability by
// design, the frontier says by how much).
TEST(Ipc, ServerCrashRecoversAcknowledgedPrefix) {
  // Profile run: count media evictions for trigger placement.
  const std::string dir = make_rendezvous_dir();
  // Up to `rounds` rounds of put clients against one server, each round
  // on fresh key bases, stopping once `plan` (if any) tripped. The plan
  // is armed only once some acknowledged op's epoch is persisted, with
  // trigger_at counted from there: a freeze before that point leaves no
  // ack inside the recovery frontier, and the run would check nothing.
  // Appends every client's ack log to `logs`.
  auto drive = [&](World& w, int nclients, int ops, const char* tag,
                   int rounds, const nvm::FaultPlan* plan,
                   std::vector<std::string>& logs) -> bool {
    svc::KVStore store(*w.es, ipc_store_cfg(4));
    ipc::ShmServer::Config scfg;
    scfg.dir = dir;
    scfg.max_sessions = 4;
    scfg.poll_us = 1'000;
    ipc::ShmServer server(store, scfg);
    std::atomic<bool> done{false};
    std::thread armer([&] {
      if (plan == nullptr) return;
      const auto pause = [&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return !done.load();
      };
      while (store.completed_total() == 0) {
        if (!pause()) return;
      }
      // The first acked op committed in this epoch or an earlier one.
      const std::uint64_t e = w.es->current_epoch();
      while (w.es->persisted_epoch() < e + 2) {
        if (!pause()) return;
      }
      nvm::FaultPlan armed = *plan;
      armed.trigger_at += w.dev->fault_events(armed.event);
      w.dev->arm_fault_plan(armed);
    });
    bool ok = true;
    for (int r = 0; r < rounds && !w.dev->fault_tripped(); ++r) {
      std::vector<pid_t> pids;
      for (int i = 0; i < nclients; ++i) {
        logs.push_back(dir + "/" + tag + std::to_string(r) + "_" +
                       std::to_string(i) + ".log");
        pids.push_back(spawn_client({
            "--dir=" + dir,
            "--slots=8",
            "--flight=4",
            "--ops=" + std::to_string(ops),
            "--key-base=" + std::to_string(1'000'000 * (i + 1) + 10'000 * r),
            "--mode=put",
            "--log=" + logs.back(),
        }));
      }
      for (pid_t p : pids) ok = wait_exit(p, nullptr) == 0 && ok;
    }
    done.store(true);
    armer.join();
    server.close();
    store.close();
    return ok;
  };

#ifdef BDHTM_TSAN
  const int kOps = 80;
#else
  const int kOps = 200;
#endif
  std::uint64_t evictions = 0;
  {
    World w = ipc_world();
    std::vector<std::string> logs;
    ASSERT_TRUE(drive(w, 2, kOps, "p", 1, nullptr, logs));
    evictions = w.dev->fault_events(nvm::FaultEvent::kEviction);
  }
  ASSERT_GT(evictions, 0u);

  nvm::FaultPlan plan;
  plan.event = nvm::FaultEvent::kEviction;
  plan.trigger_at = evictions / 2;
  World w = ipc_world();
  // The armed run needn't ack every op (the media freezes mid-run and
  // timing shifts); the oracle is built from what WAS acked. It can also
  // evict fewer lines than the profile run did, so up to 8 extra rounds
  // run until the plan trips.
  std::vector<std::string> armed_logs;
  drive(w, 2, kOps, "a", 9, &plan, armed_logs);
  ASSERT_TRUE(w.dev->fault_tripped()) << "plan never tripped";

  std::map<std::uint64_t, Ack> acked;
  for (const std::string& log : armed_logs) {
    for (const Ack& a : parse_acks(log)) {
      if (a.op == ipc::kOpPut && a.status == ipc::kStOk) acked[a.key] = a;
    }
  }
  ASSERT_FALSE(acked.empty());

  w.crash_and_attach();
  const std::uint64_t frontier =
      epoch::EpochSys::recovery_frontier(w.es->persisted_epoch());
  svc::KVStoreConfig vcfg = ipc_store_cfg(1);
  vcfg.start_workers = false;
  svc::KVStore verify(*w.es, vcfg);
  verify.recover(2);
  const auto& rep = w.es->last_recovery();
  EXPECT_EQ(rep.blocks_quarantined, 0u);
  EXPECT_EQ(rep.checksum_failures, 0u);

  std::size_t kept = 0, rolled = 0;
  for (const auto& [k, a] : acked) {
    auto got = verify.shard(verify.shard_of(k)).find(k);
    if (a.complete_epoch <= frontier) {
      ASSERT_TRUE(got.has_value())
          << "key " << k << " inside frontier " << frontier << " lost";
      EXPECT_EQ(*got, a.value);
      ++kept;
    } else {
      ASSERT_FALSE(got.has_value())
          << "key " << k << " past frontier " << frontier << " survived";
      ++rolled;
    }
  }
  // The run must actually exercise both sides of the frontier.
  std::uint64_t first_epoch = ~std::uint64_t{0}, last_epoch = 0;
  for (const auto& [k, a] : acked) {
    first_epoch = std::min(first_epoch, a.complete_epoch);
    last_epoch = std::max(last_epoch, a.complete_epoch);
  }
  EXPECT_GT(kept, 0u) << "frontier " << frontier << ", acked epochs "
                      << first_epoch << ".." << last_epoch;
  EXPECT_GT(rolled, 0u) << "media froze too late to cut any acks";
  remove_dir(dir);
}

// ---------------------------------------------------------------------
// Request spans (DESIGN.md §13): one request's lifecycle stages, stamped
// in both processes, must line up on the shared span id with
// monotonically ordered timestamps when the two traces are merged.

/// One event parsed back out of ipc_client's --trace-out JSON (the
/// SpanRecorder format is fixed; this is a token scan, not a JSON
/// parser).
struct CliEv {
  std::string name;
  double ts_us = 0, dur_us = 0;
  std::uint64_t span = 0;
};

std::vector<CliEv> parse_client_trace(const std::string& path) {
  std::vector<CliEv> out;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  std::size_t pos = 0;
  while ((pos = s.find("{\"name\":\"", pos)) != std::string::npos) {
    CliEv e;
    const std::size_t nb = pos + 9;
    const std::size_t ne = s.find('"', nb);
    if (ne == std::string::npos) break;
    e.name = s.substr(nb, ne - nb);
    auto num_after = [&](const char* key, double* v) {
      const std::size_t k = s.find(key, pos);
      if (k != std::string::npos) *v = std::strtod(s.c_str() + k + std::strlen(key), nullptr);
    };
    num_after("\"ts\":", &e.ts_us);
    num_after("\"dur\":", &e.dur_us);
    const std::size_t sp = s.find("\"span\":", pos);
    if (sp != std::string::npos) {
      e.span = std::strtoull(s.c_str() + sp + 7, nullptr, 10);
    }
    out.push_back(std::move(e));
    pos = ne;
  }
  return out;
}

TEST(Ipc, RequestSpansMergeMonotonicallyAcrossProcesses) {
  obs::reset_traces();
  obs::set_tracing(true);
  World w = ipc_world();
  svc::KVStore store(*w.es, ipc_store_cfg(2));
  const std::string dir = make_rendezvous_dir();
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = 2;
  scfg.poll_us = 500;
  auto server = std::make_unique<ipc::ShmServer>(store, scfg);

  constexpr std::uint64_t kOps = 64;
  const std::string trace = dir + "/client_trace.json";
  const pid_t pid = spawn_client({"--dir=" + dir, "--ops=" + std::to_string(kOps),
                                  "--flight=4", "--mode=mixed",
                                  "--log=" + dir + "/spans.log",
                                  "--trace-out=" + trace});
  EXPECT_EQ(wait_exit(pid, nullptr), 0);
  server->close();
  store.close();
  obs::set_tracing(false);

  // Server-side stages, keyed by span id (rings are quiesced: all
  // server threads joined).
  struct SrvStage {
    double queue_ts = -1, queue_end = -1;
    double exec_ts = -1, exec_end = -1;
    double ack_ts = -1;
  };
  struct Ctx {
    std::map<std::uint64_t, SrvStage> by_span;
  } ctx;
  obs::for_each_trace_event(
      [](void* cp, int, const obs::TraceEvent& ev) {
        auto& m = static_cast<Ctx*>(cp)->by_span;
        const double ts = static_cast<double>(ev.ts_ns) / 1e3;
        const double end = static_cast<double>(ev.ts_ns + ev.dur_ns) / 1e3;
        switch (ev.type) {
          case obs::TraceEventType::kReqQueue:
            m[ev.a].queue_ts = ts;
            m[ev.a].queue_end = end;
            break;
          case obs::TraceEventType::kReqExec:
            m[ev.a].exec_ts = ts;
            m[ev.a].exec_end = end;
            break;
          case obs::TraceEventType::kReqAck:
            m[ev.a].ack_ts = ts;
            break;
          default:
            break;
        }
      },
      &ctx);

  // Span id carries the client pid in the high half.
  ASSERT_EQ(ctx.by_span.size(), kOps);
  for (const auto& [span, st] : ctx.by_span) {
    EXPECT_EQ(span >> 32, static_cast<std::uint64_t>(pid));
    (void)st;
  }

  // Client-side stages for the same spans.
  const std::vector<CliEv> cli = parse_client_trace(trace);
  std::map<std::uint64_t, std::pair<double, double>> cli_pub;  // ts, end of publish
  std::map<std::uint64_t, double> cli_done;                    // req.client end
  for (const CliEv& e : cli) {
    if (e.name == "req.publish") {
      cli_pub[e.span] = {e.ts_us, e.ts_us + e.dur_us};
    } else if (e.name == "req.client") {
      cli_done[e.span] = e.ts_us + e.dur_us;
    }
  }
  ASSERT_EQ(cli_pub.size(), kOps);
  ASSERT_EQ(cli_done.size(), kOps);

  // Merged per-span order: publish start -> submit stamp (= queue ts)
  // -> dequeue (queue end) -> envelope (exec) -> ack -> client retire.
  // 1.001 us slack absorbs the JSON round trip's 3-decimal rounding.
  constexpr double kEps = 1.001e-3;
  for (const auto& [span, st] : ctx.by_span) {
    ASSERT_TRUE(cli_pub.count(span)) << "server span unknown to client";
    const auto [pub_ts, pub_end] = cli_pub[span];
    ASSERT_GE(st.queue_ts, 0.0);
    ASSERT_GE(st.exec_ts, 0.0);
    ASSERT_GE(st.ack_ts, 0.0);
    EXPECT_LE(pub_ts, st.queue_ts + kEps);
    EXPECT_LE(st.queue_ts, st.queue_end + kEps);
    EXPECT_LE(st.queue_end, st.exec_ts + kEps);
    EXPECT_LE(st.exec_ts, st.exec_end + kEps);
    EXPECT_LE(st.exec_end, st.ack_ts + kEps);
    EXPECT_LE(st.ack_ts, cli_done[span] + kEps);
  }

  obs::reset_traces();
  remove_dir(dir);
}

// ---------------------------------------------------------------------
// Live stats segment (DESIGN.md §13): a served workload must be visible
// through the shared-memory export — totals, persistence lag, per-
// session rows — and the span/counter totals must reconcile.
TEST(Ipc, LiveStatsSegmentReflectsServedLoad) {
  obs::Registry::global().reset();
  World w = ipc_world();
  svc::KVStore store(*w.es, ipc_store_cfg(2));
  const std::string dir = make_rendezvous_dir();
  ipc::ShmServer::Config scfg;
  scfg.dir = dir;
  scfg.max_sessions = 2;
  scfg.poll_us = 500;
  scfg.stats_path = dir + "/stats.shm";
  scfg.stats_period_us = 10'000;
  auto server = std::make_unique<ipc::ShmServer>(store, scfg);

  constexpr std::uint64_t kOps = 256;
  const pid_t pid = spawn_client({"--dir=" + dir, "--ops=" + std::to_string(kOps),
                                  "--flight=8", "--mode=mixed",
                                  "--log=" + dir + "/stats_cli.log"});
  EXPECT_EQ(wait_exit(pid, nullptr), 0);

  // The reader attaches while the server is live.
  obs::StatsReader rd;
  ASSERT_TRUE(rd.open(scfg.stats_path));
  obs::StatsSample live;
  ASSERT_TRUE(rd.sample(live));
  EXPECT_EQ(live.server_pid, static_cast<std::uint32_t>(getpid()));

  // close() runs one final publish, so the last sample carries the full
  // totals even if the workload outpaced the publish tick.
  server->close();
  obs::StatsSample s;
  ASSERT_TRUE(rd.sample(s));
  rd.close();
  store.close();

  ASSERT_NE(s.counter("svc.ops"), nullptr);
  EXPECT_GE(*s.counter("svc.ops"), kOps);
  ASSERT_NE(s.counter("ipc.requests"), nullptr);
  EXPECT_GE(*s.counter("ipc.requests"), kOps);
  ASSERT_NE(s.gauge("epoch.persistence_lag_us"), nullptr);
  ASSERT_NE(s.gauge("ipc.active_sessions"), nullptr);
  const auto* hq = s.hist("svc.lat.queue_ns");
  ASSERT_NE(hq, nullptr);
  EXPECT_GT(hq->count, 0u);
  EXPECT_LE(hq->p50, hq->p99);
  ASSERT_NE(s.hist("svc.ack.buffered_ns"), nullptr);
  ASSERT_EQ(s.sessions.size(), scfg.max_sessions);
  std::uint64_t session_ops = 0;
  for (const auto& row : s.sessions) session_ops += row.ops;
  // Per-session lifetime ops reconcile exactly with the transport total.
  EXPECT_EQ(session_ops, *s.counter("ipc.requests"));

  remove_dir(dir);
}

}  // namespace
}  // namespace bdhtm
