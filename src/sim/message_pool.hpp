#pragma once
// Size-class freelist allocator for sim::Message payloads.
//
// Every wire message in a simulation is heap-allocated (make_unique at the
// send site, unique_ptr ownership through the network), which makes malloc
// the hottest function in big sweeps: the M1/M2/M3 index paths allocate and
// free millions of small, short-lived objects of a handful of sizes. The
// pool intercepts Message::operator new/delete and serves those objects
// from per-thread freelists backed by slab chunks, so steady-state message
// allocation is a pointer pop and free is a pointer push.
//
// Design:
//  * Allocations are rounded up to one of a few 64-byte-granular size
//    classes; each class has a thread-local freelist. A miss carves a new
//    slab (kSlabObjects objects) and pushes it onto the freelist. Objects
//    larger than the biggest class fall through to ::operator new.
//  * Every allocation is prefixed by a 16-byte header recording its size
//    class, so operator delete needs no size information and stays correct
//    for polymorphic deletes through the Message base pointer.
//  * Slab memory is owned by a process-global registry (freed at process
//    exit), never by the thread that carved it. Bench sweeps run many
//    simulators on a thread pool, and the sharded kernel hands a shard's
//    window to whichever thread runs it; global slab ownership makes a
//    message freed on a different thread than it was allocated on (or
//    after the allocating thread exited) safe — the pointer joins the
//    freeing thread's list.
//  * A thread's freelists outlive it: at thread exit they are spliced
//    onto a mutex-guarded global orphan list per size class, and a thread
//    whose freelist runs empty adopts that class's orphans before it
//    carves a new slab. Without this, every block on an exited worker's
//    lists (ShardEngine workers exit with each engine) would be lost.
//  * Under AddressSanitizer the pool is compiled out (plain new/delete):
//    recycling memory through freelists would mask use-after-free and
//    leak diagnostics, which is exactly what the sanitizer legs exist to
//    catch. MessagePool::Enabled() reports which mode is live and
//    BENCH.json records it.
//
// Determinism: the pool affects only *where* objects live, never any value
// the simulation computes, so same-seed runs stay bit-identical (asserted
// by the determinism regression test).

#include <cstddef>
#include <cstdint>

namespace peertrack::sim {

/// Per-thread allocation counters (reset-able; read by bench/perf_smoke to
/// report allocation churn in BENCH.json).
struct MessagePoolStats {
  std::uint64_t served = 0;     ///< Pool allocations (fresh slab carves + reuses).
  std::uint64_t reused = 0;     ///< Subset of `served` satisfied from a freelist.
  std::uint64_t fallback = 0;   ///< Oversized allocations passed to ::operator new.
  std::uint64_t slab_bytes = 0; ///< Slab memory carved by this thread.

  /// Snapshot of the calling thread's counters.
  static MessagePoolStats Read() noexcept;
  /// Zero the calling thread's counters (bench warm-up barriers).
  static void ResetThread() noexcept;
};

class MessagePool {
 public:
  /// True when the freelist pool is compiled in (false under sanitizers).
  static bool Enabled() noexcept;

  /// Allocate `size` bytes suitably aligned for any Message subclass.
  static void* Allocate(std::size_t size);

  /// Return memory obtained from Allocate. Null is ignored.
  static void Deallocate(void* ptr) noexcept;
};

}  // namespace peertrack::sim
