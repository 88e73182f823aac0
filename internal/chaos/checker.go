package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/memnode"
	"cowbird/internal/rings"
)

// WorkloadConfig sizes an invariant-checking workload.
type WorkloadConfig struct {
	// Slots partitions the region into Slots slots of SlotSize bytes each;
	// every operation targets one whole slot.
	Slots    int
	SlotSize int
	// Ops is the number of operations to issue.
	Ops int
	// Window caps in-flight operations; the workload drains completions
	// when it is reached (and on ring-full backpressure).
	Window int
	// DrainTimeout bounds every wait on completions: the final wait for
	// stragglers after the last op, and each wait for a window slot or for
	// ring space. A wait that overruns it fails the run as lost completions.
	DrainTimeout time.Duration
	// OnOp, if set, runs before issuing operation i — the hook property
	// tests use to fire a fault at a seeded point in the workload.
	OnOp func(i int)
}

// DefaultWorkloadConfig returns a workload that fits the default system
// deployment (4 MiB region).
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		Slots:        64,
		SlotSize:     256,
		Ops:          400,
		Window:       32,
		DrainTimeout: 30 * time.Second,
	}
}

// RunWorkload drives a seeded random read/write workload over th and checks
// the fault-tolerance invariants the ISSUE's property tests rely on:
//
//   - every acked write is readable: a read returns the bytes of the last
//     write issued before it to the same slot (per-queue ring order plus the
//     engine's conflict splits make "last issued" well-defined);
//   - no completion is lost: every issued operation is delivered before the
//     drain deadline;
//   - no completion is duplicated: each ReqID is delivered exactly once.
//
// ErrPoolDegraded from the poll group is an advisory and does not fail the
// workload; ErrEngineDead does. The workload is deterministic given the
// seed: the operation sequence consumes only the seeded source.
func RunWorkload(th *core.Thread, seed int64, cfg WorkloadConfig) error {
	if cfg.Slots <= 0 || cfg.SlotSize <= 0 || cfg.Ops <= 0 {
		return fmt.Errorf("chaos: bad workload config %+v", cfg)
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	g := th.PollCreate()

	type pend struct {
		read bool
		slot int
		tag  byte   // for reads: fill byte of the last write issued before it
		dest []byte // for reads
	}
	pending := make(map[core.ReqID]pend, cfg.Window)
	delivered := make(map[core.ReqID]bool, cfg.Ops)
	lastTag := make([]byte, cfg.Slots) // 0 = never written (region starts zeroed)
	buf := make([]byte, cfg.SlotSize)
	nextTag := byte(0)

	// drain pulls completions and checks the invariants on each.
	drain := func(timeout time.Duration) error {
		ids, err := g.WaitErr(cfg.Window, timeout)
		if err != nil && !errors.Is(err, core.ErrPoolDegraded) {
			return fmt.Errorf("chaos: wait: %w", err)
		}
		for _, id := range ids {
			if delivered[id] {
				return fmt.Errorf("chaos: duplicate completion for %v", id)
			}
			delivered[id] = true
			p, ok := pending[id]
			if !ok {
				return fmt.Errorf("chaos: completion for unknown request %v", id)
			}
			delete(pending, id)
			if p.read {
				for off, b := range p.dest {
					if b != p.tag {
						return fmt.Errorf("chaos: read of slot %d byte %d: got %#x, want %#x (acked write lost or reordered)", p.slot, off, b, p.tag)
					}
				}
			}
		}
		return nil
	}
	// drainWhile drains while blocked reports true, for at most
	// cfg.DrainTimeout: a lost completion fails the run instead of hanging.
	drainWhile := func(blocked func() bool) error {
		deadline := time.Now().Add(cfg.DrainTimeout)
		for blocked() {
			if time.Now().After(deadline) {
				return fmt.Errorf("chaos: %d of %d completions lost (drain deadline passed)", len(pending), cfg.Ops)
			}
			if err := drain(time.Second); err != nil {
				return err
			}
		}
		return nil
	}

	for i := 0; i < cfg.Ops; i++ {
		if cfg.OnOp != nil {
			cfg.OnOp(i)
		}
		if err := drainWhile(func() bool { return len(pending) >= cfg.Window }); err != nil {
			return err
		}
		slot := rng.Intn(cfg.Slots)
		off := uint64(slot * cfg.SlotSize)
		if rng.Intn(2) == 0 {
			// Write: a fresh non-zero tag fills the slot.
			nextTag++
			if nextTag == 0 {
				nextTag = 1
			}
			for j := range buf {
				buf[j] = nextTag
			}
			var id core.ReqID
			var err error
			if derr := drainWhile(func() bool {
				id, err = th.AsyncWrite(0, buf, off)
				return isRingFull(err)
			}); derr != nil {
				return derr
			}
			if err != nil {
				return fmt.Errorf("chaos: write op %d: %w", i, err)
			}
			lastTag[slot] = nextTag
			pending[id] = pend{slot: slot}
			if err := g.Add(id); err != nil {
				return fmt.Errorf("chaos: poll add: %w", err)
			}
		} else {
			dest := make([]byte, cfg.SlotSize)
			want := lastTag[slot]
			var id core.ReqID
			var err error
			if derr := drainWhile(func() bool {
				id, err = th.AsyncRead(0, off, dest)
				return isRingFull(err)
			}); derr != nil {
				return derr
			}
			if err != nil {
				return fmt.Errorf("chaos: read op %d: %w", i, err)
			}
			pending[id] = pend{read: true, slot: slot, tag: want, dest: dest}
			if err := g.Add(id); err != nil {
				return fmt.Errorf("chaos: poll add: %w", err)
			}
		}
	}

	return drainWhile(func() bool { return len(pending) > 0 })
}

// CheckReplicas verifies the replica-integrity half of the fencing
// invariant (DESIGN.md §14) after a chaos run: every pool in pools holds a
// byte-identical copy of region regionID over [0, size). Pass only live
// replicas — a crashed pool's memory is gone by design, not divergent.
// Byte equality across replicas is strictly stronger than "no acked write
// lost": it additionally proves no fenced writer landed a byte on SOME
// replicas (a partial mirror from a zombie would diverge them).
func CheckReplicas(pools []*memnode.Node, regionID uint16, size int) error {
	if len(pools) < 2 {
		return nil
	}
	const chunk = 1 << 20
	for off := 0; off < size; off += chunk {
		n := size - off
		if n > chunk {
			n = chunk
		}
		ref, err := pools[0].Peek(regionID, uint64(off), n)
		if err != nil {
			return fmt.Errorf("chaos: peek replica 0: %w", err)
		}
		for r := 1; r < len(pools); r++ {
			got, err := pools[r].Peek(regionID, uint64(off), n)
			if err != nil {
				return fmt.Errorf("chaos: peek replica %d: %w", r, err)
			}
			for i := range got {
				if got[i] != ref[i] {
					return fmt.Errorf("chaos: replicas 0 and %d diverge at region %d byte %d: %#x vs %#x",
						r, regionID, off+i, ref[i], got[i])
				}
			}
		}
	}
	return nil
}

func isRingFull(err error) bool {
	return errors.Is(err, rings.ErrMetaFull) ||
		errors.Is(err, rings.ErrReqDataFull) ||
		errors.Is(err, rings.ErrRespDataFull)
}
