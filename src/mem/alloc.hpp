// The unified allocation facade: every node-sized allocation in the tree —
// htm::make, the abort-time alloc_log unwinder, and all of ds/ — routes
// through mem::alloc / mem::dealloc / mem::retire (enforced by the lint
// rule node-alloc-via-facade for ds/). No raw new/delete on node paths.
//
//   alloc<T>   — pooled placement-new (pool.hpp); oversize types fall back
//                to operator new behind the same block header.
//   dealloc<T> — immediate destroy + free: for memory that was never
//                published to concurrent readers (abort unwind, structure
//                destructors). Foreign blocks travel the owner's MPSC
//                inbox as already-dead memory.
//   retire<T>  — grace-deferred reclamation. A foreign trivially-
//                destructible node skips the local limbo entirely and is
//                pre-retired straight to its owner's inbox (one batched
//                CAS, no global-epoch load); the owner stamps it into an
//                epoch batch at drain time (ebr.hpp). Everything else
//                takes the local limbo with a destroy+free deleter.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "mem/ebr.hpp"
#include "mem/pool.hpp"
#include "util/thread_id.hpp"

namespace hcf::mem {

namespace detail {

// Limbo deleter for facade-allocated nodes: destroy, then route the block
// home (local free list, or the owner's inbox when the limbo that held the
// entry belongs to another thread).
template <typename T>
void retire_deleter(void* q) {
  static_cast<T*>(q)->~T();
  free_block(header_of(q));
}

}  // namespace detail

template <typename T, typename... Args>
T* alloc(Args&&... args) {
  static_assert(alignof(T) <= 2 * alignof(std::max_align_t) &&
                    alignof(T) <= kHeaderSize,
                "over-aligned types cannot ride behind the block header");
  const std::uint8_t cls = detail::class_for_size(sizeof(T));
  const std::size_t self = util::this_thread_id();
  BlockHeader* h;
  if (cls == kOversizeClass) {
    h = static_cast<BlockHeader*>(::operator new(kHeaderSize + sizeof(T)));
    h->set(self, kOversizeClass, 0);
  } else {
    h = detail::this_pool().allocate(cls, self);
  }
  if constexpr (std::is_nothrow_constructible_v<T, Args...>) {
    return ::new (h->object()) T(std::forward<Args>(args)...);
  } else {
    try {
      return ::new (h->object()) T(std::forward<Args>(args)...);
    } catch (...) {
      free_block(h);
      throw;
    }
  }
}

// Immediate destroy + free. Only for memory no concurrent reader can still
// hold: abort-log unwinds and single-threaded teardown.
template <typename T>
void dealloc(T* p) {
  p->~T();
  free_block(header_of(p));
}

// Grace-deferred reclamation through the facade.
template <typename T>
void retire(T* p) {
  BlockHeader* h = header_of(p);
  if constexpr (std::is_trivially_destructible_v<T>) {
    if (h->owner() != util::this_thread_id()) {
      retire_block_remote(h);
      return;
    }
  }
  util::bump(reclaim_stats().local().local_retires);
  EbrDomain::instance().retire(p, &detail::retire_deleter<T>);
}

}  // namespace hcf::mem
