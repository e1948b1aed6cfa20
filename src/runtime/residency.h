#ifndef HARMONY_RUNTIME_RESIDENCY_H_
#define HARMONY_RUNTIME_RESIDENCY_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/ring_queue.h"
#include "common/status.h"
#include "core/task_graph.h"
#include "fault/fault.h"
#include "runtime/memory_manager.h"
#include "runtime/step.h"
#include "runtime/tensor.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "sim/stream.h"
#include "trace/trace.h"

namespace harmony::runtime {

/// One issued step's join, owned by the executor. Every need and produce of
/// the step reports exactly one Committed() (its allocation is granted, so
/// the step's issue slot can recycle) and then one Arrived() (its bytes are
/// resident). The residency layer parks the pointer in its wait and
/// allocation records instead of copying callbacks.
class StepJoin {
 public:
  virtual void Committed() = 0;
  virtual void Arrived() = 0;

 protected:
  ~StepJoin() = default;
};

/// The residency layer of the execution pipeline: Harmony's tensor-lifetime
/// state machine (Sec 4.4) over per-device memory. Owns the tensor table, the
/// device memory managers, the allocation queues, and every host<->device /
/// peer transfer decision: demand fetches, just-enough LRU eviction (or
/// LMS-style evict-everything when smart_eviction is off), clean drops of
/// host-backed copies, gradient pushes, and checkpoint write-backs.
///
/// The executor above it only says *what* a step needs and produces; this
/// layer decides *where* the bytes come from and emits the byte-accounting
/// trace events (kSwapIn/OutIssued, kP2pIssued, kEvict, kCleanDrop,
/// kAllocStall, kHostBytes, kDeviceBytes) that MetricsSink folds into
/// RunMetrics.
///
/// All tensors are addressed by the program's dense TensorId; the program's
/// catalog resolves ids back to structural keys for diagnostics only.
class Residency {
 public:
  /// Services the residency layer borrows from the executor: the simulation
  /// clock and transfer machinery, the run-failure channel, and a probe for
  /// "more in-flight steps will unpin tensors soon" (which turns an empty
  /// victim list into a wait instead of an OOM).
  struct Env {
    sim::Engine* engine = nullptr;
    sim::FlowNetwork* flows = nullptr;
    const sim::Interconnect* net = nullptr;
    std::vector<sim::Stream*> swapin;   // per device
    std::vector<sim::Stream*> swapout;  // per device
    std::vector<sim::Stream*> p2pin;    // per device
    std::function<void(Status)> fail;
    std::function<bool()> failed;
    std::function<bool(int)> steps_in_flight;  // >1 outstanding steps on d?

    /// Transfer launcher: FlowNetwork::StartFlow directly on fault-free
    /// runs, or the chaos driver's retry-with-backoff wrapper when transfer
    /// failures are armed. (path, bytes, device-for-attribution, done).
    std::function<void(const std::vector<int>&, Bytes, int,
                       std::function<void()>)>
        transfer;
    /// Fault decision oracle; null = chaos disabled (every injection site
    /// pays one branch).
    fault::FaultInjector* injector = nullptr;
  };

  /// `program` must outlive the Residency; its catalog sizes the tensor
  /// table and its ref_counts seed consumer counts.
  Residency(const core::TaskGraph& graph, std::vector<Bytes> capacities,
            const StepProgram* program, Env env, trace::TraceBus* bus);

  // --- allocation & fetching (issue side) ---------------------------------

  /// Makes `need.id` usable on device `d`: waits for production if needed,
  /// then pins an existing copy or allocates + fetches one (host swap-in,
  /// p2p, or a host bounce when p2p is off), reporting one commit and one
  /// arrival to `join`.
  void EnsureResident(int d, const NeedSpec& need, StepJoin* join);

  /// Allocation for a tensor this step will write: records the size and
  /// queues the allocation (residency is finalized by FinalizeProduce). The
  /// grant reports both the commit and the arrival to `join`.
  void AllocForProduce(int d, const ProduceSpec& p, StepJoin* join);

  /// Drains device `d`'s allocation queue as far as memory allows.
  void PumpAllocator(int d);
  /// Re-pumps every device (after unpins/frees that may unblock any queue).
  void PumpAll();

  // --- step-completion actions (finish side) ------------------------------

  void UnpinNeed(int d, TensorId id);
  /// Finalizes a produced tensor: residency, dirty bit, refcount seeding,
  /// creation-waiter wakeup, and the immediate free of unconsumed data.
  void FinalizeProduce(int d, const ProduceSpec& p);
  /// Newest data now on GPU; any host copy is stale.
  void MarkDirty(TensorId id);
  /// Checkpoint / master-weight write-back: async copy, GPU copy stays.
  void CopyToHost(int d, TensorId id);
  /// Gradient push / optimizer-state write-back: async move, GPU copy
  /// released on completion (concurrent consumers re-fetch from host).
  void MoveToHost(int d, TensorId id);
  /// Consumer finished with a data tensor; frees it on the last reference.
  void Deref(TensorId id);

  // --- host-side hooks (CPU update steps) ---------------------------------

  /// True when a final host copy of `id` exists.
  bool HostReady(TensorId id);
  /// Runs `fn` when a host copy of `id` next becomes available.
  void AddHostWaiter(TensorId id, std::function<void()> fn);
  /// Releases a consumed host copy (gradient applied by the CPU optimizer).
  void ReleaseHostCopy(TensorId id);

  // --- fault hooks --------------------------------------------------------

  /// Injected co-tenant pressure spike: reserves fraction x capacity on
  /// device `d` and emergency-evicts (recovery-classified) resident tensors
  /// until the books balance. Returns the bytes stolen.
  Bytes ApplyFaultPressure(int d, double fraction);
  /// Ends the spike and re-pumps the allocator. Returns the bytes released.
  Bytes ReleaseFaultPressure(int d);

  /// Accounts the permanently-resident host footprint (master weights,
  /// optimizer state, scheme overheads) before execution starts.
  void SetStaticHostBytes(Bytes bytes);
  Bytes host_bytes() const { return host_bytes_; }

  // --- diagnostics --------------------------------------------------------

  bool HasPendingAllocs(int d) const { return !alloc_queue_[d].empty(); }
  /// Queued-but-unserved allocations on `d`, e.g. "W[L3 d0](256.0 MiB)".
  std::string DescribePendingAllocs(int d) const;
  /// One-line status of every unmet need of a stuck step, naming the tensors
  /// it waits on and why ("unproduced", "evicting", "fetch-in-flight", ...).
  std::string DescribeWait(int d, const Step& step);
  /// Structural key for `id` (diagnostics / trace detail).
  const TensorKey& KeyOf(TensorId id) const { return program_->tensors.key(id); }

 private:
  /// A queued allocation: a produce (grant = commit + arrival) or a fetch
  /// (grant starts the transfer from `src`, -1 = host).
  struct AllocReq {
    TensorId id = kInvalidTensorId;
    Bytes bytes = 0;
    StepJoin* join = nullptr;
    bool fetch = false;
    int src = -1;
    int fault_attempts = 0;      // injected alloc-failures consumed so far
    bool fault_waiting = false;  // a backoff retry timer owns this slot
  };

  /// A parked continuation in a tensor's WaitList: a step's need retrying
  /// EnsureResident, or (join == nullptr) a CPU step's callback.
  struct Wait {
    StepJoin* join = nullptr;
    int d = 0;
    NeedSpec need;
    std::function<void()> fn;
    int next = -1;  // the list's next record, or the free list's
  };

  /// One in-flight transfer (fetch, eviction, write-back) and the state its
  /// completion needs. Stream bodies and flow callbacks capture {this,
  /// record}, which fits std::function's small-object buffer.
  struct Transfer {
    TensorId id = kInvalidTensorId;
    int d = 0;
    int src = -1;
    Bytes bytes = 0;
    StepJoin* join = nullptr;
    bool fault_recovery = false;
    std::function<void()> done;  // the stream op's completion
    Transfer* next_free = nullptr;
  };

  bool AutoCreate(TensorId id, Bytes bytes);
  void RequestAlloc(int d, const AllocReq& req);
  /// Runs a granted request: a produce reports to its join, a fetch starts
  /// its transfer.
  void Grant(int d, const AllocReq& req);
  void StartFetch(int d, TensorId id, int src, StepJoin* join);
  /// `fault_recovery` evictions exist only because an injected pressure
  /// spike forced them: they account as kFaultRecovered (not kEvict /
  /// kCleanDrop / kSwapOutIssued) and tag the tensor so the healing refetch
  /// is recovery traffic too.
  void StartEviction(int d, TensorId id, bool fault_recovery = false);
  // Transfer completions.
  void FetchLanded(Transfer* x);
  void BounceLanded(Transfer* x);
  void EvictionLanded(Transfer* x);
  void CopyLanded(Transfer* x);
  void MoveLanded(Transfer* x);
  /// Pushes a swap-in of `x` on device x->d's stream; lands in FetchLanded.
  void PushSwapIn(Transfer* x);

  Transfer* NewTransfer(TensorId id, int d, Bytes bytes);
  void FreeTransfer(Transfer* x);

  void Park(WaitList* list, Wait w);
  /// Detaches `*list` and runs its waits in FIFO order; waits parked while
  /// they run land on the (now empty) list for the next wakeup.
  void RunWaits(WaitList* list);

  void HostArrived(TensorId id);
  void AddHostBuffer(TensorState* st);
  void DropHostBuffer(TensorState* st);
  void FreeTensor(TensorId id);
  int RefCount(TensorId id) const { return program_->ref_counts[id]; }

  void EmitInstant(trace::EventKind kind, trace::Lane lane, int device,
                   Bytes bytes);
  void EmitFault(trace::EventKind kind, int device, Bytes bytes,
                 const char* detail);
  void TraceTensor(TensorId id, const char* detail, int device);

  const core::TaskGraph& graph_;
  const StepProgram* program_;
  Env env_;
  trace::TraceBus* bus_;

  std::vector<DeviceMemory> mem_;
  TensorTable table_;

  std::vector<RingQueue<AllocReq>> alloc_queue_;
  std::vector<int> evictions_in_flight_;
  std::vector<TensorId> victims_;  // PickVictims scratch

  // Recycled records. Waits are addressed by index (the pool may grow while
  // one runs); transfers by pointer into stable deque storage.
  std::vector<Wait> waits_;
  int free_wait_ = -1;
  std::deque<Transfer> transfers_;
  Transfer* free_transfer_ = nullptr;

  Bytes host_bytes_ = 0;
};

}  // namespace harmony::runtime

#endif  // HARMONY_RUNTIME_RESIDENCY_H_
