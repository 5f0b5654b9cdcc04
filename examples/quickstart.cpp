// Quickstart: a buffered-durable key-value store in ~40 lines.
//
// Builds a BD-Spash hash table (paper §4.3) on a simulated NVM device,
// writes some pairs, persists through the epoch system, simulates a
// power failure, and recovers.
//
//   $ ./quickstart
#include <cstdio>

#include "alloc/pallocator.hpp"
#include "epoch/epoch_sys.hpp"
#include "hash/bd_spash.hpp"
#include "nvm/device.hpp"

using namespace bdhtm;

int main() {
  // 1. An NVM "device": working image + crash-survivable media image.
  nvm::DeviceConfig dcfg;
  dcfg.capacity = 256ull << 20;
  nvm::Device dev(dcfg);

  // 2. Persistent allocator and the epoch system (50 ms epochs by
  //    default; every write becomes durable at the end of its epoch,
  //    when the transition that closes it writes it back).
  alloc::PAllocator pa(dev);
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 10'000;
  epoch::EpochSys es(pa, ecfg);

  // 3. The hash table: HTM-synchronized, DRAM index, NVM blocks.
  hash::BDSpash kv(es);
  for (std::uint64_t k = 1; k <= 1000; ++k) kv.insert(k, k * 100);
  std::printf("inserted 1000 pairs; get(42) = %llu\n",
              static_cast<unsigned long long>(*kv.find(42)));

  // 4. Make everything durable, then pull the plug.
  es.persist_all();
  kv.insert(2000, 7);  // written after the last flush: may not survive
  dev.simulate_crash();
  std::printf("crash!\n");

  // 5. Recover: re-attach the allocator and epoch system, rebuild.
  alloc::PAllocator pa2(dev, alloc::PAllocator::Mode::kAttach);
  epoch::EpochSys::Config rcfg;
  rcfg.attach = true;
  rcfg.start_advancer = false;
  epoch::EpochSys es2(pa2, rcfg);
  hash::BDSpash recovered(es2);
  const std::size_t live = recovered.recover();

  std::printf("recovered %zu pairs; get(42) = %llu; get(2000) %s\n", live,
              static_cast<unsigned long long>(*recovered.find(42)),
              recovered.find(2000) ? "SURVIVED (its epoch closed in time)"
                                   : "dropped (its epoch never closed)");
  return 0;
}
