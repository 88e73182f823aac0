package spot

import (
	"fmt"

	"cowbird/internal/core"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
)

// InstanceSpec is the §5.2 Phase I (Setup) hand-off: everything the engine
// needs to serve one compute node. The control plane wires the QPs; the
// engine only validates and publishes them.
type InstanceSpec struct {
	// Instance describes the compute node's queue sets and the regions its
	// client addresses.
	Instance *core.Instance
	// Compute is the instance-wide QP to the compute node, on the engine's
	// NIC with send CQ e.CQ(): adoption reads, the serial datapath, and
	// workers without dedicated QPs post on it.
	Compute *rdma.QP
	// Replicas lists the pool nodes backing the regions in priority order;
	// Replicas[0] starts as the primary. Each carries the instance-wide QP
	// to that node (send CQ e.CQ()) and the node's own descriptors of the
	// regions it hosts (same id and size; base and rkey may differ).
	Replicas []PoolReplica
	// Homes, when non-nil, composes the address space from the replicas
	// instead of mirroring it: Homes[regionID] lists the replica indices
	// hosting that region (the fleet directory's placement). READs go to
	// the region's first live home, WRITEs to all of its homes. Nil mirrors
	// every region to every replica: every WRITE reaches all live replicas
	// before progress publishes, and READs are served from the primary,
	// failing over to the next live replica when it dies — detected by
	// Go-Back-N retry exhaustion on a data op or on a paced heartbeat READ
	// (Config.PoolHeartbeatInterval).
	Homes [][]int
	// Queues, when non-nil, gives every queue set of Instance its own
	// datapath QPs, in queue order, so each worker runs its requests to
	// completion on its own goroutine: post on private QPs, complete into
	// the private CQ, harvest locally — no demultiplexer hop and no per-QP
	// lock shared with another shard. Nil serves every queue set through
	// Compute and the Replicas' QPs. A serial engine accepts the wiring but
	// serves through the instance-wide QPs.
	Queues []QueueEndpoints
}

// QueueEndpoints carries one queue set's dedicated datapath QPs.
// SendCQ must be the send completion queue of ComputeQP and of every pool
// QP — it becomes the queue worker's private CQ. Pools holds one connected
// QP per entry of InstanceSpec.Replicas, in the same order.
type QueueEndpoints struct {
	SendCQ    *rdma.CQ
	ComputeQP *rdma.QP
	Pools     []*rdma.QP
}

// validate checks the spec's shape before anything is built.
func (spec InstanceSpec) validate() error {
	in := spec.Instance
	if in == nil || spec.Compute == nil {
		return fmt.Errorf("spot: instance spec needs an instance and a compute QP")
	}
	if spec.Queues != nil {
		if len(spec.Queues) != len(in.Queues) {
			return fmt.Errorf("spot: instance %d: %d queue endpoints for %d queues", in.ID, len(spec.Queues), len(in.Queues))
		}
		for i, qe := range spec.Queues {
			if qe.SendCQ == nil || qe.ComputeQP == nil || len(qe.Pools) != len(spec.Replicas) {
				return fmt.Errorf("spot: instance %d: queue %d endpoints incomplete (%d pool QPs for %d replicas)", in.ID, i, len(qe.Pools), len(spec.Replicas))
			}
		}
	}
	if spec.Homes == nil {
		return nil
	}
	// A composed address space: every region must have at least one home,
	// and every home must actually host the region.
	for _, reg := range in.Regions {
		if int(reg.ID) >= len(spec.Homes) {
			return fmt.Errorf("spot: region %d has no home entry (%d entries)", reg.ID, len(spec.Homes))
		}
		h := spec.Homes[reg.ID]
		if len(h) == 0 {
			return fmt.Errorf("spot: region %d has no home replica", reg.ID)
		}
		for _, ri := range h {
			if ri < 0 || ri >= len(spec.Replicas) {
				return fmt.Errorf("spot: region %d home %d out of range (%d replicas)", reg.ID, ri, len(spec.Replicas))
			}
			found := false
			for _, rr := range spec.Replicas[ri].Regions {
				if rr.ID == reg.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("spot: replica %d does not host region %d", ri, reg.ID)
			}
		}
	}
	return nil
}

// AddInstance registers a compute node whose queue sets start from zeroed
// pointers: a fresh Setup. In the sharded datapath each queue set gets its
// own worker, started immediately if the engine is already running, so
// instances can be added live.
func (e *Engine) AddInstance(spec InstanceSpec) error {
	return e.addInstance(spec, false)
}

// AdoptInstance registers a compute node previously served by another
// (now presumed-dead, or released) engine: the takeover path of
// internal/ha and the live-migration target of the fleet. Instead of
// starting from zeroed pointers as AddInstance does, it reconstructs the
// engine-side state by reading the durable red bookkeeping block back from
// the compute node — one RDMA read per queue. The engine is pure soft state
// (§4.2: all durable bookkeeping lives in compute-node memory), so that
// single read per queue recovers exactly where the previous engine stopped.
// Replica death is soft state too, re-detected by the new engine's first
// failed round or heartbeat against a dead pool.
//
// Exactly-once replay. The red block (heads, per-type progress counters,
// heartbeat) is only ever updated in a single RDMA write, so the durable
// copy is always internally consistent — it is the same "cache the outcome,
// replay on duplicate" idiom internal/rdma uses for atomics, applied at the
// protocol level. Entries below the durable MetaHead have had their effects
// published and are never re-executed. Entries at or above it may have been
// partially executed by the dead engine, but their completions never
// landed; re-executing them is safe because
//
//   - write payloads are still pinned in the request data ring (the client
//     frees that space only when the durable ReqDataHead advances), and
//     re-running a write stores the same bytes at the same pool address;
//   - re-running a read refetches into response-ring space the client has
//     not consumed (ReadProgress never advanced past it);
//   - replay walks the metadata ring in order from MetaHead, so per-type
//     ordering — and the read-after-write conflict splits derived from it —
//     is preserved across the failover boundary.
func (e *Engine) AdoptInstance(spec InstanceSpec) error {
	return e.addInstance(spec, true)
}

// addInstance is the one registration body behind AddInstance and
// AdoptInstance.
func (e *Engine) addInstance(spec InstanceSpec, adopt bool) error {
	if err := spec.validate(); err != nil {
		return err
	}
	inst := newInstance(spec)
	// QPs wired after a SetFenceEpoch inherit the engine's epoch, or their
	// first write would NAK against the already-raised floors.
	e.stampConn(inst.shared)
	for _, qe := range spec.Queues {
		e.stampConn(conn{computeQP: qe.ComputeQP, pools: qe.Pools})
	}
	if adopt {
		if err := e.readRedBlocks(inst); err != nil {
			return err
		}
	}
	// Registration is a control-plane op: the control goroutine publishes
	// the new COW snapshot and spins up the workers; the datapath observes
	// the instance on its next snapshot load without ever locking.
	e.runCtl(func() {
		e.publishInstance(inst)
		if !e.cfg.Serial {
			e.mu.Lock()
			e.addWorkersLocked(inst, spec.Queues)
			e.mu.Unlock()
		}
	})
	return nil
}

// readRedBlocks loads every queue's durable red block into inst, the
// adoption half of addInstance. The reads run on the control shard under
// the stop-the-world barrier (quiesceWorkers): the write side of ioMu
// fences the serial loop and control-shard rounds, and every queue
// worker's round lock is held, so adoption never interleaves with a serve
// round even on a running engine. Workers added by a concurrent
// AddInstance after the barrier's snapshot serve unrelated queues, so they
// cannot observe the instance being reconstructed here; inst itself is
// published only after the barrier is released, as one COW snapshot flip.
func (e *Engine) readRedBlocks(inst *instance) error {
	if e.preempted.Load() {
		return ErrPreempted
	}
	release := e.quiesceWorkers()
	defer release()
	for _, q := range inst.queues {
		qi := q.qi
		ar := arenaAlloc{s: e.ctl}
		redVA, redBuf, _ := ar.alloc(rings.RedSize)
		err := e.postAndWait(e.ctl, inst.shared.computeQP, rdma.WorkRequest{
			Verb: rdma.VerbRead, LocalVA: redVA, Length: rings.RedSize,
			RemoteVA: qi.BaseVA + uint64(qi.Layout.RedOffset()), RKey: qi.RKey,
		})
		if err != nil {
			return fmt.Errorf("spot: adopt instance %d queue %d: %w", inst.info.ID, qi.Index, err)
		}
		// lastRed stays zero: the first heartbeat check writes immediately,
		// announcing the takeover to the compute node's lease monitor.
		q.red = rings.DecodeRed(redBuf)
	}
	return nil
}

// newInstance builds the engine-side state of spec with zeroed queues.
func newInstance(spec InstanceSpec) *instance {
	in := spec.Instance
	inst := &instance{
		info:    in,
		regions: core.NewRegionTable(in.Regions),
		shared:  conn{computeQP: spec.Compute},
		homes:   spec.Homes,
	}
	for i, pr := range spec.Replicas {
		inst.replicas = append(inst.replicas, &replica{regions: core.NewRegionTable(pr.Regions)})
		inst.shared.pools = append(inst.shared.pools, pr.QP)
		inst.allTargets = append(inst.allTargets, i)
	}
	for _, qi := range in.Queues {
		inst.queues = append(inst.queues, newQueueState(qi))
	}
	return inst
}
