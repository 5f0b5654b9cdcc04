#include "sync/rdcss.hpp"

#include <vector>

#include "sync/mwcas.hpp"  // mwcas_ebr()

namespace bdhtm::sync {
namespace {

RdcssDesc* desc_of(std::uint64_t v) {
  return reinterpret_cast<RdcssDesc*>(v & ~kRdcssTag);
}
std::uint64_t tagged(RdcssDesc* r) {
  return reinterpret_cast<std::uint64_t>(r) | kRdcssTag;
}

// Per-thread descriptor pool, recycled through EBR. It owns the
// descriptors on its free list and frees them when its thread exits.
struct RdcssPool {
  std::vector<RdcssDesc*> free_list;
  ~RdcssPool() {
    for (RdcssDesc* r : free_list) delete r;
  }
};
thread_local RdcssPool t_rdcss_pool;

void complete(RdcssDesc* r) {
  const std::uint64_t s =
      r->status_addr->load(std::memory_order_acquire) & r->status_mask;
  const std::uint64_t v =
      s == r->status_expected ? r->install_value : r->expected;
  std::uint64_t expected = tagged(r);
  r->addr->compare_exchange_strong(expected, v, std::memory_order_acq_rel);
}

}  // namespace

RdcssDesc* rdcss_acquire() {
  std::vector<RdcssDesc*>& free_list = t_rdcss_pool.free_list;
  if (!free_list.empty()) {
    RdcssDesc* r = free_list.back();
    free_list.pop_back();
    return r;
  }
  return new RdcssDesc();
}

void rdcss_retire(RdcssDesc* r) {
  mwcas_ebr().retire(
      r, [](void* p, void*) {
        t_rdcss_pool.free_list.push_back(static_cast<RdcssDesc*>(p));
      },
      nullptr);
}

void rdcss_release_unused(RdcssDesc* r) {
  t_rdcss_pool.free_list.push_back(r);
}

void rdcss_complete(std::uint64_t tagged_ptr) {
  complete(desc_of(tagged_ptr));
}

std::uint64_t rdcss(RdcssDesc* r) {
  for (;;) {
    std::uint64_t expected = r->expected;
    if (r->addr->compare_exchange_strong(expected, tagged(r),
                                         std::memory_order_acq_rel)) {
      const std::uint64_t out = r->expected;  // read before retiring
      complete(r);
      rdcss_retire(r);
      return out;
    }
    if (is_rdcss(expected)) {
      complete(desc_of(expected));  // clear the other install, retry
      continue;
    }
    rdcss_release_unused(r);
    return expected;
  }
}

}  // namespace bdhtm::sync
