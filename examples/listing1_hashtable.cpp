// Listing 1, executable: the paper's BDL-HTM insert strategy spelled out
// against the real API, on a minimal fixed-size hash table.
//
// Walks through the exact steps of paper Listing 1:
//   - beginOp() / preallocation with an invalid epoch (lines 8-12),
//   - the transaction: lock subscription, epoch stamping, the three-way
//     epoch comparison (OldSeeNewException / out-of-place replace /
//     in-place update) (lines 14-37),
//   - abort handling: OldSeeNewException restarts in a new epoch, a held
//     lock spins, other causes retry then take the global-lock fallback
//     (lines 38-49),
//   - the op_done epilogue: pRetire/pTrack strictly after the commit
//     (lines 50-55).
#include <cassert>
#include <cstdio>

#include "alloc/pallocator.hpp"
#include "epoch/epoch_sys.hpp"
#include "common/rng.hpp"
#include "epoch/kvpair.hpp"
#include "htm/access.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"
#include "nvm/device.hpp"

using namespace bdhtm;
using epoch::KVPair;

namespace {

constexpr int kBuckets = 256;
constexpr int kBucketSize = 8;
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

struct SimpleTable {
  // DRAM index; slots point at KVPair blocks in NVM.
  std::uint64_t keys[kBuckets][kBucketSize];
  std::uint64_t blocks[kBuckets][kBucketSize];
};

epoch::EpochSys* esys;
htm::FallbackPolicy global_lock;  // one stripe: the paper's global lock
thread_local epoch::KVPool pool;  // preallocated blocks (lines 9-12)
thread_local KVPair* new_blk;
thread_local KVPair* retire_blk;
thread_local KVPair* persist_blk;

void insert(SimpleTable* table, std::uint64_t k, std::uint64_t v) {
  const auto bucket = splitmix64(k) % kBuckets;
retry_regist:
  const std::uint64_t op_epoch = esys->beginOp();          // line 8
  new_blk = pool.take(*esys, sizeof(KVPair), k, v);        // lines 9-12
  retire_blk = persist_blk = nullptr;

  int attempts = 0;
retry_txn:
  const unsigned status = htm::run([&](htm::Txn& tx) {     // line 14
    global_lock.subscribe(tx, global_lock.all());          // line 16
    htm::TxAccess acc{tx};
    epoch::EpochSys::set_epoch_generic(acc, esys->device(), new_blk,
                                       op_epoch);          // line 17
    KVPair* found = nullptr;
    int free_slot = -1;
    for (int i = 0; i < kBucketSize; ++i) {                // line 19
      const std::uint64_t key_i = tx.load(&table->keys[bucket][i]);
      if (key_i == k) {
        found = reinterpret_cast<KVPair*>(
            tx.load(&table->blocks[bucket][i]));
      } else if (key_i == kEmpty && free_slot < 0) {
        free_slot = i;
      }
      if (found != nullptr) {
        const std::uint64_t e =
            epoch::EpochSys::get_epoch_generic(acc, found);  // line 21
        if (e > op_epoch) {
          tx.abort(htm::kOldSeeNewCode);                   // line 23
        } else if (e < op_epoch) {                         // lines 24-28
          retire_blk = found;
          tx.store(&table->blocks[bucket][i],
                   reinterpret_cast<std::uint64_t>(new_blk));
          persist_blk = new_blk;
        } else {                                           // line 29
          tx.store_nvm(esys->device(), &found->value, v);
          persist_blk = found;
        }
        return;                                            // lines 30-31
      }
    }
    assert(free_slot >= 0 && "demo table never fills");
    tx.store(&table->blocks[bucket][free_slot],
             reinterpret_cast<std::uint64_t>(new_blk));    // line 34
    tx.store(&table->keys[bucket][free_slot], k);
    persist_blk = new_blk;
  });

  if (status != htm::kCommitted) {                         // lines 38-49
    if ((status & htm::kAbortExplicit) &&
        htm::explicit_code(status) == htm::kOldSeeNewCode) {
      pool.give_back(*esys, new_blk);
      esys->abortOp();                                     // line 40
      goto retry_regist;                                   // line 41
    }
    if ((status & htm::kAbortExplicit) &&
        htm::explicit_code(status) == htm::kLockSubscriptionCode) {
      while (global_lock.any_locked(global_lock.all())) {  // line 43
      }
      goto retry_txn;                                      // line 44
    }
    if (++attempts < 8) goto retry_txn;
    // Fallback path (line 46-48) omitted in the demo: single writer.
    goto retry_txn;
  }

  // op_done (lines 50-55). An unlinked new_blk goes back to the pool,
  // which resets its stamp (the §5 rule).
  if (persist_blk != new_blk) pool.give_back(*esys, new_blk);
  if (retire_blk != nullptr) esys->pRetire(retire_blk);    // line 51
  if (persist_blk != nullptr) esys->pTrack(persist_blk);   // line 52
  retire_blk = nullptr;                                    // line 53
  persist_blk = nullptr;                                   // line 54
  esys->endOp();                                           // line 55
}

}  // namespace

int main() {
  nvm::DeviceConfig dcfg;
  dcfg.capacity = 64ull << 20;
  nvm::Device dev(dcfg);
  alloc::PAllocator pa(dev);
  epoch::EpochSys::Config ecfg;
  ecfg.start_advancer = false;  // advance epochs by hand for the demo
  epoch::EpochSys es(pa, ecfg);
  esys = &es;

  auto table = std::make_unique<SimpleTable>();
  for (auto& b : table->keys) {
    for (auto& s : b) s = kEmpty;
  }

  insert(table.get(), 17, 1700);
  std::printf("inserted (17, 1700) in epoch %llu\n",
              static_cast<unsigned long long>(es.current_epoch()));

  insert(table.get(), 17, 1701);
  std::printf("same-epoch update: in place (no new NVM block)\n");

  es.advance();
  insert(table.get(), 17, 1702);
  std::printf("newer-epoch update: out-of-place replace; old block "
              "retired, durably at the next transition, reclaimed at the "
              "one after\n");

  es.persist_all();
  std::printf("persisted: blocks reclaimed so far = %llu\n",
              static_cast<unsigned long long>(
                  es.stats().blocks_reclaimed.load()));
  return 0;
}
