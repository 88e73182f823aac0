package spot

import (
	"sync"
	"time"

	"cowbird/internal/cluster"
)

// TenantQoS bounds one instance's (tenant's) share of the engine.
type TenantQoS struct {
	// RatePerSec caps the tenant's served entries per second via a token
	// bucket; <= 0 means unlimited.
	RatePerSec float64
	// Burst is the bucket depth — how far a conforming tenant may burst
	// above its rate after idling. <= 0 takes RatePerSec/10 (min 1).
	Burst int
	// Quantum is the tenant's deficit-round-robin allowance: entries added
	// per serve pass in the serial datapath, so a backlogged tenant drains
	// at most its quantum per pass while peers get theirs. <= 0 takes the
	// engine's MaxEntriesPerRound.
	Quantum int
}

// tenantQoSState is the live QoS state of one instance: a shared token
// bucket (all the tenant's queue workers draw from it) and the DRR quantum.
// Swapped atomically so SetTenantQoS can retune a running tenant.
type tenantQoSState struct {
	mu      sync.Mutex
	bucket  *cluster.TokenBucket
	quantum int
}

// reserve takes up to max tokens from the tenant's bucket; the caller
// refunds what the round doesn't use. Unlimited buckets grant max.
func (ts *tenantQoSState) reserve(max int) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.bucket.Unlimited() {
		return max
	}
	return ts.bucket.Take(time.Now().UnixNano(), max)
}

// refund returns unused reserved tokens.
func (ts *tenantQoSState) refund(n int) {
	if n <= 0 {
		return
	}
	ts.mu.Lock()
	ts.bucket.Refund(n)
	ts.mu.Unlock()
}

// Instances returns the IDs of the currently registered instances, in
// publication order — the fleet layer and tests assert residency with it.
func (e *Engine) Instances() []int {
	snap := e.insts.Load().instances
	ids := make([]int, 0, len(snap))
	for _, inst := range snap {
		ids = append(ids, inst.info.ID)
	}
	return ids
}

// SetTenantQoS installs (or retunes) rate limiting and fair-scheduling
// parameters for the instance with the given ID, returning whether it was
// found. The serve loop picks the new state up on its next round.
func (e *Engine) SetTenantQoS(instanceID int, q TenantQoS) bool {
	for _, inst := range e.insts.Load().instances {
		if inst.info.ID != instanceID {
			continue
		}
		burst := q.Burst
		if burst <= 0 {
			burst = int(q.RatePerSec / 10)
		}
		quantum := q.Quantum
		if quantum <= 0 {
			quantum = e.cfg.MaxEntriesPerRound
		}
		inst.qos.Store(&tenantQoSState{
			bucket:  cluster.NewTokenBucket(q.RatePerSec, burst),
			quantum: quantum,
		})
		return true
	}
	return false
}

// RemoveInstance unregisters the instance with the given ID, quiescing the
// datapath so no serve round is mid-flight on it and retiring its workers.
// It is the release half of a live queue-set migration: once it returns, no
// further RDMA of this engine touches the tenant's rings or regions, so the
// target engine's AdoptInstance reads a stable red block and replays
// exactly-once from there. Returns whether the instance was found.
func (e *Engine) RemoveInstance(instanceID int) bool {
	found := false
	e.runCtl(func() {
		old := e.insts.Load()
		var target *instance
		ns := &instSnap{gen: old.gen + 1, instances: make([]*instance, 0, len(old.instances))}
		for _, inst := range old.instances {
			if inst.info.ID == instanceID && target == nil {
				target = inst
				continue
			}
			ns.instances = append(ns.instances, inst)
		}
		if target == nil {
			return
		}
		found = true
		// The quiesce barrier guarantees the flip happens between rounds:
		// the serial loop re-loads the snapshot inside its pass lock, and
		// each retired worker observes its flag under its own round lock
		// before it could start another round.
		release := e.quiesceWorkers()
		e.insts.Store(ns)
		e.mu.Lock()
		kept := e.workers[:0]
		for _, w := range e.workers {
			if w.inst == target {
				w.retired.Store(true)
				continue
			}
			kept = append(kept, w)
		}
		for i := len(kept); i < len(e.workers); i++ {
			e.workers[i] = nil
		}
		e.workers = kept
		e.mu.Unlock()
		release()
	})
	return found
}
