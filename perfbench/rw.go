package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"cowbird/internal/cache"
	"cowbird/internal/core"
	"cowbird/internal/engine/spot"
	"cowbird/internal/rdma"
	"cowbird/internal/rings"
	"cowbird/internal/system"
	"cowbird/internal/telemetry"
	"cowbird/internal/ycsb"
)

// The two closed-loop workloads over one deployment shape: system.New with
// the Spot engine, one pool replica, a 64 MiB region of 64-byte records,
// and two client threads (one load goroutine each) keeping a window of 16
// operations in flight.
//
// uniform-rw: 3:1 reads to writes at uniform offsets, cache off. Every
// fourth record is a write slot owned by one thread; the rest are read
// slots that keep their loaded contents, so every read is checked exactly.
//
// zipf-cached: YCSB-B (95% reads) over scrambled Zipf 0.99 with the client
// cache on and holding a sixteenth of the records. Thread t owns records
// 2k+t, so each record has one writer, and a read must return a version
// between the last acked and the last issued write of that record when
// the read was issued.
const (
	rwThreads     = 2
	rwWindow      = 16
	rwRegionBytes = 64 << 20
	rwRecords     = rwRegionBytes / recordBytes
	rwCacheLines  = rwRecords / 16
	loadChunk     = 32 << 10
	stallTimeout  = 5 * time.Second
	// pollTimeout is the deadline of each WaitErr call. Under the client's
	// pollSleepSlack it waits on scheduler yields; with a longer deadline
	// it sleeps 20 µs at a time, and on a 2-vCPU Linux VM where such a
	// sleep lasts a millisecond or more, those sleeps, not the datapath,
	// made the read p99 (4 ms against a 0.3 ms median) and most of its
	// run-to-run spread.
	pollTimeout = time.Millisecond
)

type rwKind int

const (
	kindUniform rwKind = iota
	kindZipf
)

func runUniform(o opts, traced bool, seconds float64) (*result, error) {
	return runRW(o, kindUniform, traced, seconds)
}

func runZipf(o opts, traced bool, seconds float64) (*result, error) {
	return runRW(o, kindZipf, traced, seconds)
}

// rwSlot is one in-flight operation of a load goroutine's window.
type rwSlot struct {
	busy   bool
	write  bool
	id     core.ReqID
	t0     int64
	key    uint32
	lo, hi uint32 // versions a read may return
	buf    [recordBytes]byte
}

// rwLoad is one load goroutine: its client thread, window and counters.
type rwLoad struct {
	idx   int
	kind  rwKind
	th    *core.Thread
	g     *core.PollGroup
	salt  uint64
	rng   xorshift
	gen   *ycsb.Generator
	slots [rwWindow]rwSlot
	busy  int
	wbuf  [recordBytes]byte
	seq   uint64
	tr    *tracer

	// issued and acked are the per-record write versions, shared array,
	// but each record is only ever touched by its owning goroutine.
	issued, acked []uint32

	clk *measureClock
	lat *lat

	measured                           bool // the measured phase has begun
	attempted, failed, ringFull, polls int64
	errs                               []string
}

func (l *rwLoad) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 4 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// next picks the next operation: whether it writes, and which record.
// During the warm-up zipf-cached only reads, so the cache fills: fills are
// not admitted while any write is in flight, and under the measured mix an
// empty cache takes minutes to warm.
func (l *rwLoad) next(warm bool) (write bool, key uint32) {
	if l.kind == kindZipf {
		write = l.gen.NextOp() == ycsb.OpUpdate && !warm
		return write, uint32(2*l.gen.NextIndex()) + uint32(l.idx)
	}
	if l.rng.intn(4) == 3 {
		// Write slots are records 4j+3; slot j belongs to thread j%2.
		j := 2*l.rng.intn(rwRecords/8) + uint64(l.idx)
		return true, uint32(4*j + 3)
	}
	q := l.rng.intn(rwRecords / 4 * 3)
	return false, uint32(q/3*4 + q%3)
}

func isRingFull(err error) bool {
	return errors.Is(err, rings.ErrMetaFull) || errors.Is(err, rings.ErrReqDataFull) || errors.Is(err, rings.ErrRespDataFull)
}

// issue fills the window, stopping early when the ring is full.
func (l *rwLoad) issue(ph int32) {
	measuring := ph == phaseMeasure
	for l.busy < rwWindow {
		si := 0
		for l.slots[si].busy {
			si++
		}
		s := &l.slots[si]
		write, key := l.next(ph == phaseWarm)
		off := uint64(key) * recordBytes
		l.seq++
		var tok spanTok
		if l.tr != nil {
			l.tr.req = uint64(l.idx)<<56 | l.seq
			tok = l.tr.open(spIssue)
		}
		t0 := now()
		var id core.ReqID
		var err error
		if write {
			ver := l.issued[key] + 1
			fillRecord(l.wbuf[:], l.salt, key, ver)
			id, err = l.th.AsyncWrite(0, l.wbuf[:], off)
			if err == nil {
				l.issued[key] = ver
				s.hi = ver
			}
		} else {
			s.lo, s.hi = l.acked[key], l.issued[key]
			id, err = l.th.AsyncRead(0, off, s.buf[:])
		}
		if l.tr != nil {
			kind := spIssue
			if err == nil && id.LocalHit() {
				kind = spHit
			}
			l.tr.close(tok, kind)
		}
		if err != nil {
			if isRingFull(err) {
				l.ringFull++
				return
			}
			l.attempted++
			l.fail("issue %v: %v", key, err)
			continue
		}
		l.attempted++
		s.write, s.key, s.t0, s.id = write, key, t0, id
		if id.LocalHit() {
			// Answered from the cache before AsyncRead returned.
			l.complete(s, now(), measuring)
			continue
		}
		if err := l.g.Add(id); err != nil {
			l.fail("poll add: %v", err)
			continue
		}
		s.busy = true
		l.busy++
	}
}

// complete checks a finished operation and records its latency.
func (l *rwLoad) complete(s *rwSlot, t1 int64, measuring bool) {
	if s.write {
		if s.hi > l.acked[s.key] {
			l.acked[s.key] = s.hi
		}
	} else if !checkRecord(s.buf[:], l.salt, s.key, s.lo, s.hi) {
		l.fail("read of record %d returned a wrong value", s.key)
	}
	if measuring {
		l.lat.record(l.clk.window(t1), s.write, t1-s.t0)
	}
}

// poll waits for completions. It returns false when the deployment
// stopped making progress or reported an error; the window's operations
// are then counted as failed.
func (l *rwLoad) poll(measuring bool, lastProgress *int64) bool {
	var tok spanTok
	if l.tr != nil {
		tok = l.tr.open(spPoll)
	}
	ids, err := l.g.WaitErr(rwWindow, pollTimeout)
	if l.tr != nil {
		l.tr.close(tok, spPoll)
	}
	l.polls++
	t1 := now()
	for _, id := range ids {
		for si := range l.slots {
			s := &l.slots[si]
			if s.busy && s.id == id {
				s.busy = false
				l.busy--
				l.complete(s, t1, measuring)
				break
			}
		}
	}
	if len(ids) > 0 {
		*lastProgress = t1
		return true
	}
	if err != nil || t1-*lastProgress > int64(stallTimeout) {
		l.fail("%d operations lost: %v (no completion for %v)", l.busy, err, time.Duration(t1-*lastProgress))
		l.failed += int64(l.busy) - 1
		return false
	}
	return true
}

func (l *rwLoad) run() {
	last := now()
	for {
		ph := l.clk.phase.Load()
		if ph == phaseStop {
			break
		}
		if ph == phaseMeasure && !l.measured {
			// Layer counters and spans cover the measured phase only.
			l.measured = true
			l.polls, l.ringFull = 0, 0
			l.tr.reset()
		}
		l.issue(ph)
		if l.busy > 0 && !l.poll(ph == phaseMeasure, &last) {
			return
		}
	}
	for l.busy > 0 {
		if !l.poll(false, &last) {
			return
		}
	}
}

// rwDeploy is one built and loaded deployment.
type rwDeploy struct {
	sys    *system.System
	newDur time.Duration
}

func rwConfig(kind rwKind, hub *telemetry.Telemetry) system.Config {
	cfg := system.DefaultConfig()
	cfg.Threads = rwThreads
	cfg.RegionSize = rwRegionBytes
	cfg.Telemetry = hub
	if kind == kindZipf {
		cfg.Cache = cache.Config{Enabled: true, LineSize: recordBytes, Lines: rwCacheLines, Shards: 8}
	}
	return cfg
}

// loadRecords writes n records at version 0 from the start of a region,
// with keys from firstKey up, through th: a window of chunk-sized writes
// at a time.
func loadRecords(th *core.Thread, region uint16, salt uint64, firstKey uint32, n int, chunkBytes int) error {
	buf := make([]byte, chunkBytes)
	g := th.PollCreate()
	per := chunkBytes / recordBytes
	for first := 0; first < n; first += per {
		cnt := min(per, n-first)
		for i := 0; i < cnt; i++ {
			fillRecord(buf[i*recordBytes:], salt, firstKey+uint32(first+i), 0)
		}
		for {
			id, err := th.AsyncWrite(region, buf[:cnt*recordBytes], uint64(first)*recordBytes)
			if err == nil {
				if err := g.Add(id); err != nil {
					return err
				}
				break
			}
			if !isRingFull(err) {
				return err
			}
			if _, err := g.WaitErr(g.Len(), 10*time.Second); err != nil {
				return err
			}
		}
		if g.Len() >= 8 {
			if _, err := g.WaitErr(1, 10*time.Second); err != nil {
				return err
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for g.Len() > 0 {
		if _, err := g.WaitErr(g.Len(), time.Second); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("load: %d writes never completed", g.Len())
		}
	}
	return nil
}

func buildRW(kind rwKind, salt uint64, hub *telemetry.Telemetry) (*rwDeploy, error) {
	t0 := time.Now()
	sys, err := system.New(rwConfig(kind, hub))
	if err != nil {
		return nil, err
	}
	d := &rwDeploy{sys: sys, newDur: time.Since(t0)}
	th, err := sys.Client.Thread(0)
	if err == nil {
		err = loadRecords(th, sys.Region.ID, salt, 0, rwRecords, loadChunk)
	}
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	return d, nil
}

func runRW(o opts, kind rwKind, traced bool, seconds float64) (*result, error) {
	salt := mix64(o.seed ^ 0xC0B1)
	r := &result{layer: map[string]float64{}, notes: map[string]any{}}
	var hub *telemetry.Telemetry
	if traced {
		hub = telemetry.New(telemetry.Config{})
	}
	t0 := time.Now()
	d, err := buildRW(kind, salt, hub)
	if err != nil {
		return nil, err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	defer d.sys.Close()
	r.layer["system.new_ms"] = float64(d.newDur) / 1e6

	// Inputs: each load goroutine's generator is seeded from the workload
	// seed and its index; they are built before the clock starts.
	issued := make([]uint32, rwRecords)
	acked := make([]uint32, rwRecords)
	warm := time.Second
	if kind == kindZipf {
		warm = 3 * time.Second // read-only, to fill the cache; see next
	}
	clk := newMeasureClock(seconds, warm)
	loads := make([]*rwLoad, rwThreads)
	lats := make([]*lat, rwThreads)
	for i := range loads {
		th, err := d.sys.Client.Thread(i)
		if err != nil {
			return nil, err
		}
		l := &rwLoad{idx: i, kind: kind, th: th, g: th.PollCreate(), salt: salt,
			rng: newXorshift(o.seed*31 + uint64(i)), issued: issued, acked: acked,
			clk: clk, lat: newLat(clk)}
		lats[i] = l.lat
		if kind == kindZipf {
			w := ycsb.WorkloadB(rwRecords/rwThreads, recordBytes, ycsb.ScrambledZipfian)
			if l.gen, err = ycsb.NewGenerator(w, int64(o.seed*31+uint64(i))); err != nil {
				return nil, err
			}
		}
		if traced {
			l.tr = newTracer()
		}
		loads[i] = l
	}

	var wg sync.WaitGroup
	for _, l := range loads {
		wg.Add(1)
		go func(l *rwLoad) {
			defer wg.Done()
			l.run()
		}(l)
	}
	var rt runtimeMeter
	var sp0, sp1 spot.Stats
	var fb0, fb1 rdma.Stats
	var cs0, cs1 cache.Stats
	var hs hubSnap
	cc := d.sys.Client.Cache()
	bounds := clk.run(func(i int) {
		switch i {
		case 0:
			hs.take(hub)
			sp0, fb0 = d.sys.Spot.Stats(), d.sys.Fabric.Stats()
			if cc != nil {
				cs0 = cc.Stats()
			}
		case clk.n:
			sp1, fb1 = d.sys.Spot.Stats(), d.sys.Fabric.Stats()
			if cc != nil {
				cs1 = cc.Stats()
			}
		}
		rt.snap(i, clk.n)
	})
	wg.Wait()
	rt.finish(r, bounds, lats)
	r.rssMB = peakRSSMB()

	var trs []*tracer
	var ringFull, polls, readsDone int64
	for i := range r.win {
		readsDone += r.win[i].reads.n
	}
	for _, l := range loads {
		r.attempted += l.attempted
		r.failed += l.failed
		ringFull += l.ringFull
		polls += l.polls
		for _, e := range l.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s thread %d: %s\n", o.workload, l.idx, e)
		}
		if l.tr != nil {
			trs = append(trs, l.tr)
		}
	}
	bad, err := auditRecords(d.sys, salt, issued)
	if err != nil {
		return nil, err
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: audit found %d records that do not hold their last acked write\n", o.workload, bad)
	}
	r.failed += bad

	ops := float64(max(r.ops, 1))
	L := r.layer
	L["core.polls_per_op"] = float64(polls) / ops
	L["core.ring_full_per_op"] = float64(ringFull) / ops
	spotLayer(L, sp1, sp0, ops, r.seconds)
	fabricLayer(L, fb1, fb0, ops, float64(r.ops)*recordBytes)
	if cc != nil {
		hits, misses := cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses
		L["cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
		L["cache.bypass_rate"] = ratio(float64(cs1.Bypasses-cs0.Bypasses), float64(readsDone))
		L["cache.fills_dropped_per_op"] = float64(cs1.FillsDropped-cs0.FillsDropped) / ops
		L["cache.write_invals_per_op"] = float64(cs1.WriteInvals-cs0.WriteInvals) / ops
	}
	if traced {
		L["core.issue_ns"] = meanSpan(trs, spIssue)
		L["cache.hit_ns"] = meanSpan(trs, spHit)
		_, pollNs := totalSpan(trs, spPoll)
		L["core.poll_ns_per_op"] = float64(pollNs) / ops
		hs.report(L, hub)
		r.tracers = trs
	}
	return r, nil
}

// auditRecords reads the whole region straight out of the pool and counts
// records that do not hold the version of their last write. It reads a
// MiB at a time, so the audit adds little to the process's peak RSS.
func auditRecords(sys *system.System, salt uint64, issued []uint32) (int64, error) {
	const chunk = 1 << 20
	var bad int64
	for base := 0; base < rwRegionBytes; base += chunk {
		img, err := sys.Pool.Peek(sys.Region.ID, uint64(base), chunk)
		if err != nil {
			return 0, err
		}
		for o := 0; o < chunk; o += recordBytes {
			k := (base + o) / recordBytes
			if !checkRecord(img[o:], salt, uint32(k), issued[k], issued[k]) {
				bad++
			}
		}
	}
	return bad, nil
}

// spotLayer fills the spot metrics from two Engine.Stats snapshots.
func spotLayer(L map[string]float64, a, b spot.Stats, ops, seconds float64) {
	probes := float64(a.Probes - b.Probes)
	L["spot.probes_per_op"] = probes / ops
	L["spot.entries_per_probe"] = ratio(float64(a.EntriesServed-b.EntriesServed), probes)
	L["spot.reads_per_batch"] = ratio(float64(a.ReadsExecuted-b.ReadsExecuted), float64(a.ResponseBatches-b.ResponseBatches))
	L["spot.red_updates_per_op"] = float64(a.RedUpdates-b.RedUpdates) / ops
	L["spot.conflict_stalls_per_op"] = float64(a.ConflictStalls-b.ConflictStalls) / ops
	L["spot.replica_writes_per_op"] = float64(a.ReplicaWrites-b.ReplicaWrites) / ops
	L["spot.heartbeats_per_s"] = float64(a.HeartbeatWrites-b.HeartbeatWrites) / seconds
}

// fabricLayer fills the rdma metrics from two Fabric.Stats snapshots;
// userBytes is the payload the application asked to move.
func fabricLayer(L map[string]float64, a, b rdma.Stats, ops, userBytes float64) {
	bytes := float64(a.Bytes - b.Bytes)
	L["rdma.frames_per_op"] = float64(a.Frames-b.Frames) / ops
	L["rdma.bytes_per_op"] = bytes / ops
	L["rdma.goodput"] = ratio(userBytes, bytes)
	L["rdma.dropped"] = float64(a.Dropped - b.Dropped)
}

// hubSnap holds the engine stage histograms at the start of the measured
// phase, so the traced run reports stage means over that phase alone.
type hubSnap [5]telemetry.HistSnapshot

func hubStages(hub *telemetry.Telemetry) [5]*telemetry.Histogram {
	return [5]*telemetry.Histogram{hub.StageProbe, hub.StageFetch, hub.StageExecute, hub.StagePublish, hub.StageService}
}

func (s *hubSnap) take(hub *telemetry.Telemetry) {
	if hub == nil {
		return
	}
	for i, h := range hubStages(hub) {
		s[i] = h.Snapshot()
	}
}

// report sets the spot stage means, in µs, over the measured phase.
func (s *hubSnap) report(L map[string]float64, hub *telemetry.Telemetry) {
	names := [5]string{"spot.probe_us", "spot.fetch_us", "spot.execute_us", "spot.publish_us", "spot.service_us"}
	for i, h := range hubStages(hub) {
		now := h.Snapshot()
		L[names[i]] = ratio(float64(now.SumNanos-s[i].SumNanos), float64(now.Count-s[i].Count)) / 1e3
	}
}
