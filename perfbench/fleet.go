package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/system"
	"cowbird/internal/telemetry"
)

// fleet-sparse: a system.Fleet of 2 serial Spot engines and 4 memnodes with
// 1024 registered tenants, of which 16 carry traffic. Tenants are
// independent users, so one goroutine drives them open-loop: requests fall
// due at a fixed total rate, each to a seeded-random active tenant, 3:1
// reads to writes. Latency runs from the due time, so a late generator or
// a slow engine both show. A request that finds its tenant's window full
// is refused and counted as failed.
//
// Each tenant's address space is two 16 KiB stripes of 64-byte records.
// Active tenants load their records at setup; every fourth record is a
// write slot. At the end every extent of every tenant is read straight
// from its memnode: idle tenants' extents must still be zero, and active
// tenants' records must hold their loaded or last written versions, so a
// write that landed in another tenant's extent fails the audit.
const (
	fleetTenants     = 1024
	fleetActive      = 16
	fleetEngines     = 2
	fleetMemnodes    = 4
	fleetStripes     = 2
	fleetStripeBytes = 16 << 10
	fleetStripeSlots = fleetStripeBytes / recordBytes
	fleetTenantSlots = fleetStripes * fleetStripeSlots
	fleetWindow      = 32
	fleetRate        = 4000 // requests per second across the active tenants
	fleetIdleSleep   = 50 * time.Microsecond
)

func fleetConfig(hub *telemetry.Telemetry) system.FleetConfig {
	cfg := system.DefaultFleetConfig()
	cfg.Engines = fleetEngines
	cfg.Memnodes = fleetMemnodes
	cfg.StripesPerTenant = fleetStripes
	cfg.StripeSize = fleetStripeBytes
	cfg.Layout = rings.Layout{MetaEntries: 64, ReqDataBytes: 4 << 10, RespDataBytes: 4 << 10}
	cfg.Spot.StagingBytes = 64 << 10
	// Thousands of idle queues: back their probes off to one a second.
	cfg.Spot.IdleQueueProbeInterval = time.Second
	cfg.Spot.Telemetry = hub
	return cfg
}

// fleetTenant is one active tenant as the generator sees it.
type fleetTenant struct {
	id     int
	th     *core.Thread
	g      *core.PollGroup
	slots  [fleetWindow]rwSlot
	busy   int
	issued []uint32 // per-record write versions, indexed by tenant slot
	acked  []uint32
}

func (t *fleetTenant) key(slot int) uint32 { return uint32(t.id*fleetTenantSlots + slot) }

type fleetDeploy struct {
	f       *system.Fleet
	active  []*fleetTenant
	engines []*spot.Engine
	newDur  time.Duration
	addUs   []float64 // AddTenant duration per tenant, µs
}

func buildFleet(seed, salt uint64, hub *telemetry.Telemetry) (*fleetDeploy, error) {
	t0 := time.Now()
	f, err := system.NewFleet(fleetConfig(hub))
	if err != nil {
		return nil, err
	}
	d := &fleetDeploy{f: f, newDur: time.Since(t0), addUs: make([]float64, fleetTenants)}
	fail := func(err error) (*fleetDeploy, error) {
		f.Close()
		return nil, err
	}
	// The active set is drawn from the seed up front; an active tenant
	// loads its records as soon as it is registered, as a joining user
	// would, before the next tenant registers.
	rng := newXorshift(seed ^ 0xF1EE7)
	active := map[int]bool{}
	for len(active) < fleetActive {
		active[int(rng.intn(fleetTenants))] = true
	}
	for id := 0; id < fleetTenants; id++ {
		t0 := time.Now()
		ten, err := f.AddTenant(id)
		if err != nil {
			return fail(fmt.Errorf("add tenant %d: %w", id, err))
		}
		d.addUs[id] = float64(time.Since(t0)) / 1e3
		if !active[id] {
			continue
		}
		th, err := ten.Client.Thread(0)
		if err != nil {
			return fail(err)
		}
		t := &fleetTenant{id: id, th: th, g: th.PollCreate(),
			issued: make([]uint32, fleetTenantSlots), acked: make([]uint32, fleetTenantSlots)}
		for s := 0; s < fleetStripes; s++ {
			if err := loadRecords(th, uint16(s), salt, t.key(s*fleetStripeSlots), fleetStripeSlots, 2<<10); err != nil {
				return fail(fmt.Errorf("load tenant %d: %w", id, err))
			}
		}
		d.active = append(d.active, t)
	}
	seen := map[*spot.Engine]bool{}
	for id := 0; id < fleetTenants; id++ {
		if e, ok := f.EngineOf(id); ok && !seen[e] {
			seen[e] = true
			d.engines = append(d.engines, e)
		}
	}
	return d, nil
}

func (d *fleetDeploy) spotStats() spot.Stats {
	var s spot.Stats
	for _, e := range d.engines {
		x := e.Stats()
		s.Probes += x.Probes
		s.EntriesServed += x.EntriesServed
		s.ReadsExecuted += x.ReadsExecuted
		s.ResponseBatches += x.ResponseBatches
		s.RedUpdates += x.RedUpdates
		s.ConflictStalls += x.ConflictStalls
		s.ReplicaWrites += x.ReplicaWrites
		s.HeartbeatWrites += x.HeartbeatWrites
	}
	return s
}

// fleetGen is the open-loop generator.
type fleetGen struct {
	d    *fleetDeploy
	salt uint64
	rng  xorshift
	wbuf [recordBytes]byte
	seq  uint64
	tr   *tracer

	clk *measureClock
	lat *lat

	measured                              bool // the measured phase has begun
	attempted, failed, polls, warmRefused int64
	lag                                   hist
	errs                                  []string
}

func (g *fleetGen) fail(format string, args ...any) {
	g.failed++
	if len(g.errs) < 4 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// issue sends one request that fell due at due.
func (g *fleetGen) issue(due int64, measuring bool) {
	t := g.d.active[g.rng.intn(fleetActive)]
	write := g.rng.intn(4) == 3
	var slot int
	if write {
		slot = int(4*g.rng.intn(fleetTenantSlots/4) + 3)
	} else {
		q := int(g.rng.intn(fleetTenantSlots / 4 * 3))
		slot = q/3*4 + q%3
	}
	if t.busy == fleetWindow {
		// While the warm-up brings the engines out of their idle backoff,
		// a queue can sit unprobed for up to the backoff cap; refusals
		// then are reported but not failed. Once measuring, a refusal is a
		// failed request.
		if !measuring {
			g.warmRefused++
			return
		}
		g.attempted++
		g.fail("tenant %d refused a request: %d already in flight", t.id, fleetWindow)
		return
	}
	g.attempted++
	if measuring {
		g.lag.record(now() - due)
	}
	si := 0
	for t.slots[si].busy {
		si++
	}
	s := &t.slots[si]
	stripe, off := uint16(slot/fleetStripeSlots), uint64(slot%fleetStripeSlots)*recordBytes
	key := t.key(slot)
	g.seq++
	var tok spanTok
	if g.tr != nil {
		g.tr.req = g.seq
		tok = g.tr.open(spIssue)
	}
	var id core.ReqID
	var err error
	if write {
		ver := t.issued[slot] + 1
		fillRecord(g.wbuf[:], g.salt, key, ver)
		if id, err = t.th.AsyncWrite(stripe, g.wbuf[:], off); err == nil {
			t.issued[slot] = ver
			s.hi = ver
		}
	} else {
		s.lo, s.hi = t.acked[slot], t.issued[slot]
		id, err = t.th.AsyncRead(stripe, off, s.buf[:])
	}
	if g.tr != nil {
		g.tr.close(tok, spIssue)
	}
	if err == nil {
		err = t.g.Add(id)
	}
	if err != nil {
		g.fail("tenant %d issue: %v", t.id, err)
		return
	}
	s.busy, s.write, s.id, s.t0, s.key = true, write, id, due, uint32(slot)
	t.busy++
}

// poll collects every active tenant's completions once, without waiting.
func (g *fleetGen) poll(measuring bool) (done int, err error) {
	for _, t := range g.d.active {
		if t.busy == 0 {
			continue
		}
		var tok spanTok
		if g.tr != nil {
			tok = g.tr.open(spPoll)
		}
		ids, werr := t.g.WaitErr(fleetWindow, 0)
		if g.tr != nil {
			g.tr.close(tok, spPoll)
		}
		g.polls++
		if werr != nil {
			return done, fmt.Errorf("tenant %d: %w", t.id, werr)
		}
		t1 := now()
		for _, id := range ids {
			for si := range t.slots {
				s := &t.slots[si]
				if !s.busy || s.id != id {
					continue
				}
				s.busy = false
				t.busy--
				done++
				if s.write {
					if s.hi > t.acked[s.key] {
						t.acked[s.key] = s.hi
					}
				} else if !checkRecord(s.buf[:], g.salt, t.key(int(s.key)), s.lo, s.hi) {
					g.fail("tenant %d read of slot %d returned a wrong value", t.id, s.key)
				}
				if measuring {
					g.lat.record(g.clk.window(t1), s.write, t1-s.t0)
				}
				break
			}
		}
	}
	return done, nil
}

func (g *fleetGen) inflight() (n int) {
	for _, t := range g.d.active {
		n += t.busy
	}
	return n
}

// wake sends one read to every active tenant and waits for all of them,
// so queues that backed off their probes while the other tenants
// registered are serving again before the open loop starts.
func (g *fleetGen) wake() {
	for _, t := range g.d.active {
		s := &t.slots[0]
		g.attempted++
		id, err := t.th.AsyncRead(0, 0, s.buf[:])
		if err == nil {
			err = t.g.Add(id)
		}
		if err != nil {
			g.fail("tenant %d wake-up read: %v", t.id, err)
			continue
		}
		s.busy, s.write, s.id, s.key, s.lo, s.hi = true, false, id, 0, 0, 0
		t.busy++
	}
	start := now()
	for g.inflight() > 0 {
		done, err := g.poll(false)
		if err != nil || now()-start > int64(stallTimeout) {
			g.fail("wake-up reads lost: %v", err)
			return
		}
		if done == 0 {
			time.Sleep(fleetIdleSleep)
		}
	}
}

func (g *fleetGen) run() {
	period := int64(time.Second) / fleetRate
	next := now()
	last := next
	for {
		ph := g.clk.phase.Load()
		measuring := ph == phaseMeasure
		if measuring && !g.measured {
			// Layer counters and spans cover the measured phase only.
			g.measured = true
			g.polls = 0
			g.tr.reset()
		}
		if ph != phaseStop {
			for t := now(); next <= t; next += period {
				g.issue(next, measuring)
			}
		} else if g.inflight() == 0 {
			return
		}
		done, err := g.poll(measuring)
		t := now()
		if err != nil || (done == 0 && g.inflight() > 0 && t-last > int64(stallTimeout)) {
			n := g.inflight()
			g.fail("%d requests lost: %v", n, err)
			g.failed += int64(n) - 1
			return
		}
		if done > 0 || g.inflight() == 0 {
			last = t
		}
		if done == 0 {
			wait := fleetIdleSleep
			if ph != phaseStop {
				wait = min(wait, time.Duration(next-t))
			}
			time.Sleep(wait)
		}
	}
}

// auditFleet reads every tenant's extents from the memnodes and counts
// records (active tenants) and extents (idle tenants) that are wrong.
func auditFleet(d *fleetDeploy, salt uint64) (int64, error) {
	active := map[int]*fleetTenant{}
	for _, t := range d.active {
		active[t.id] = t
	}
	var bad int64
	for id := 0; id < fleetTenants; id++ {
		ten, _ := d.f.Tenant(id)
		t := active[id]
		for _, e := range ten.Extents() {
			img, err := d.f.Memnode(e.Memnode).Peek(e.NodeRegionID, 0, int(e.Size))
			if err != nil {
				return bad, err
			}
			if t == nil {
				for _, b := range img {
					if b != 0 {
						bad++
						break
					}
				}
				continue
			}
			for s := 0; s < fleetStripeSlots; s++ {
				slot := int(e.Stripe)*fleetStripeSlots + s
				v := t.issued[slot]
				if !checkRecord(img[s*recordBytes:], salt, t.key(slot), v, v) {
					bad++
				}
			}
		}
	}
	return bad, nil
}

func runFleet(o opts, traced bool, seconds float64) (*result, error) {
	salt := mix64(o.seed ^ 0xF1EE)
	r := &result{layer: map[string]float64{}, notes: map[string]any{}}
	var hub *telemetry.Telemetry
	if traced {
		hub = telemetry.New(telemetry.Config{})
	}
	t0 := time.Now()
	d, err := buildFleet(o.seed, salt, hub)
	if err != nil {
		return nil, err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	defer d.f.Close()
	L := r.layer
	L["system.new_ms"] = float64(d.newDur) / 1e6
	tenth := fleetTenants / 10
	var first, last float64
	for i := 0; i < tenth; i++ {
		first += d.addUs[i]
		last += d.addUs[fleetTenants-1-i]
	}
	L["system.add_tenant_us_first"] = first / float64(tenth)
	L["system.add_tenant_us_last"] = last / float64(tenth)

	clk := newMeasureClock(seconds, time.Second)
	g := &fleetGen{d: d, salt: salt, rng: newXorshift(o.seed*31 + 7), clk: clk, lat: newLat(clk)}
	if traced {
		g.tr = newTracer()
	}
	g.wake()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.run()
	}()
	var rt runtimeMeter
	var sp0, sp1 spot.Stats
	var fb0, fb1 rdma.Stats
	var hs hubSnap
	bounds := clk.run(func(i int) {
		switch i {
		case 0:
			hs.take(hub)
			sp0, fb0 = d.spotStats(), d.f.Fabric.Stats()
		case clk.n:
			sp1, fb1 = d.spotStats(), d.f.Fabric.Stats()
		}
		rt.snap(i, clk.n)
	})
	wg.Wait()
	rt.finish(r, bounds, []*lat{g.lat})
	r.rssMB = peakRSSMB()

	r.attempted, r.failed = g.attempted, g.failed
	r.notes["warmup_refused"] = g.warmRefused
	r.notes["lag_p99_us"] = g.lag.quantile(0.99) / 1e3
	for _, e := range g.errs {
		fmt.Fprintf(os.Stderr, "perfbench: fleet-sparse: %s\n", e)
	}
	bad, err := auditFleet(d, salt)
	if err != nil {
		return nil, err
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: fleet-sparse: isolation audit found %d bad records or extents\n", bad)
	}
	r.failed += bad

	ops := float64(max(r.ops, 1))
	spotLayer(L, sp1, sp0, ops, r.seconds)
	fabricLayer(L, fb1, fb0, ops, float64(r.ops)*recordBytes)
	L["core.polls_per_op"] = float64(g.polls) / ops
	L["driver.lag_p99_us"] = g.lag.quantile(0.99) / 1e3
	if traced {
		trs := []*tracer{g.tr}
		L["core.issue_ns"] = meanSpan(trs, spIssue)
		_, pollNs := totalSpan(trs, spPoll)
		L["core.poll_ns_per_op"] = float64(pollNs) / ops
		hs.report(L, hub)
		r.tracers = trs
	}
	return r, nil
}
