package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cowbird/internal/devices"
	"cowbird/internal/engine/spot"
	"cowbird/internal/kv"
	"cowbird/internal/rdma"
	"cowbird/internal/system"
	"cowbird/internal/telemetry"
	"cowbird/internal/ycsb"
)

// kv-ycsb is the paper's §7 application, shaped like examples/fasterkv: the
// kv store on devices.CowbirdDevice, two pool replicas, one application
// session (its own queue set; the store's log flusher has the other), and
// YCSB-B over scrambled Zipf 0.99. The dataset is 131072 records of 64
// bytes, about 11 MiB of log against a 1 MiB in-memory log, so about a
// third of the reads are small cold reads through Cowbird (the Zipf-hot
// records stay in memory) while 8 KiB page flushes are mirrored to both
// replicas. The session keeps up to 16 cold reads pending.
//
// Every value is a versioned record (verify.go); a read must return exactly
// the version of the record's last upsert before the read was issued.
//
// The log grows with every upsert and is never truncated, so the region is
// sized for a run's whole log, as a deployment would size its device: 64
// MiB is the loaded 11 MiB plus several times what a deployment measured
// for 10 s at 270k ops/s appends (about 13 MiB). A
// flush that fails leaves a hole the store does not notice (the flusher
// advances past a failed write), so the counting device below counts
// failed flushes as failures, and the run also fails if the log outgrew
// the device.
const (
	kvRecords     = 1 << 17
	kvMemBytes    = 1 << 20
	kvPageBytes   = 8 << 10
	kvRegionBytes = 64 << 20
	kvWindow      = 16
	kvReadSize    = 128
	kvKeyBytes    = 8
)

// countingDevice wraps the store's device to count the device layer's
// work and, in the traced run, record spans around the application
// session's calls.
type countingDevice struct {
	inner kv.Device
	tr    *tracer // the application session's tracer; nil untraced

	reads, readBytes, flushBytes, flushErrs atomic.Int64
}

func (d *countingDevice) Size() uint64 { return d.inner.Size() }

func (d *countingDevice) Session(threadID int) kv.DeviceSession {
	s := &countingSession{d: d, inner: d.inner.Session(threadID), flusher: threadID < 0}
	if !s.flusher {
		s.tr = d.tr
	}
	return s
}

type countingSession struct {
	d       *countingDevice
	inner   kv.DeviceSession
	flusher bool
	tr      *tracer
}

func (s *countingSession) ReadAsync(off uint64, dst []byte) (kv.Token, error) {
	var tok spanTok
	if s.tr != nil {
		tok = s.tr.open(spDevRead)
	}
	t, err := s.inner.ReadAsync(off, dst)
	if s.tr != nil {
		s.tr.close(tok, spDevRead)
	}
	s.d.reads.Add(1)
	s.d.readBytes.Add(int64(len(dst)))
	return t, err
}

// WriteAsync is only called by the store's log flusher, on its own
// goroutine; it is counted, not traced.
func (s *countingSession) WriteAsync(off uint64, src []byte) (kv.Token, error) {
	t, err := s.inner.WriteAsync(off, src)
	if s.flusher {
		s.d.flushBytes.Add(int64(len(src)))
		if err != nil {
			s.d.flushErrs.Add(1)
		}
	}
	return t, err
}

func (s *countingSession) Poll(max int, timeout time.Duration) []kv.Token {
	var tok spanTok
	if s.tr != nil {
		tok = s.tr.open(spDevPoll)
	}
	toks := s.inner.Poll(max, timeout)
	if s.tr != nil {
		s.tr.close(tok, spDevPoll)
	}
	return toks
}

// kvSlot is one pending cold read; its address is the read's context.
type kvSlot struct {
	busy     bool
	t0       int64
	key, ver uint32
}

type kvLoad struct {
	s     *kv.Session
	gen   *ycsb.Generator
	salt  uint64
	ver   []uint32
	val   [recordBytes]byte
	slots [kvWindow]kvSlot
	busy  int
	seq   uint64
	tr    *tracer

	clk *measureClock
	lat *lat

	measured             bool // the measured phase has begun
	attempted, failed    int64
	reads, cold, upserts int64 // issued while measuring
	errs                 []string
}

func (l *kvLoad) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 4 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// issue draws the next operation from the generator and runs it.
func (l *kvLoad) issue(measuring bool) {
	k := l.gen.NextIndex()
	if l.gen.NextOp() == ycsb.OpUpdate {
		l.upsert(k, measuring)
	} else {
		l.read(k, measuring)
	}
}

// upsert writes the next version of record k.
func (l *kvLoad) upsert(k int64, measuring bool) {
	l.seq++
	l.attempted++
	ver := l.ver[k] + 1
	fillRecord(l.val[:], l.salt, uint32(k), ver)
	var tok spanTok
	if l.tr != nil {
		l.tr.req = l.seq
		tok = l.tr.open(spKVUpsert)
	}
	t0 := now()
	err := l.s.Upsert(l.gen.Key(k), l.val[:])
	t1 := now()
	if l.tr != nil {
		l.tr.close(tok, spKVUpsert)
	}
	if err != nil {
		l.fail("upsert %d: %v", k, err)
		return
	}
	l.ver[k] = ver
	if measuring {
		l.upserts++
		l.lat.record(l.clk.window(t1), true, t1-t0)
	}
}

// read looks record k up. A read that goes pending takes a window slot and
// is finished by complete.
func (l *kvLoad) read(k int64, measuring bool) {
	l.seq++
	l.attempted++
	key := l.gen.Key(k)
	si := 0
	for l.slots[si].busy {
		si++
	}
	sl := &l.slots[si]
	sl.key, sl.ver = uint32(k), l.ver[k]
	var tok spanTok
	if l.tr != nil {
		l.tr.req = l.seq
		tok = l.tr.open(spKVHot)
	}
	t0 := now()
	val, st, err := l.s.Read(key, sl)
	t1 := now()
	if l.tr != nil {
		kind := spKVHot
		if st == kv.StatusPending {
			kind = spKVCold
		}
		l.tr.close(tok, kind)
	}
	if measuring {
		l.reads++
	}
	switch {
	case err != nil:
		l.fail("read %d: %v", k, err)
	case st == kv.StatusPending:
		sl.busy, sl.t0 = true, t0
		l.busy++
		if measuring {
			l.cold++
		}
	case st != kv.StatusOK:
		l.fail("read %d: %v", k, st)
	case len(val) != recordBytes || !checkRecord(val, l.salt, sl.key, sl.ver, sl.ver):
		l.fail("read %d returned a wrong value", k)
	case measuring:
		l.lat.record(l.clk.window(t1), false, t1-t0)
	}
}

// complete collects finished cold reads; with wait it blocks until one
// finishes.
func (l *kvLoad) complete(measuring, wait bool) bool {
	var tok spanTok
	if l.tr != nil {
		tok = l.tr.open(spKVComplete)
	}
	res, err := l.s.CompletePending(wait)
	if l.tr != nil {
		l.tr.close(tok, spKVComplete)
	}
	t1 := now()
	if err != nil {
		l.fail("complete pending: %v (%d reads lost)", err, l.busy)
		l.failed += int64(l.busy) - 1
		return false
	}
	for _, r := range res {
		sl := r.Ctx.(*kvSlot)
		sl.busy = false
		l.busy--
		switch {
		case r.Status != kv.StatusOK:
			l.fail("cold read %d: %v", sl.key, r.Status)
		case len(r.Value) != recordBytes || !checkRecord(r.Value, l.salt, sl.key, sl.ver, sl.ver):
			l.fail("cold read %d returned a wrong value", sl.key)
		case measuring:
			l.lat.record(l.clk.window(t1), false, t1-sl.t0)
		}
	}
	return true
}

func (l *kvLoad) run() {
	for {
		ph := l.clk.phase.Load()
		if ph == phaseStop {
			break
		}
		measuring := ph == phaseMeasure
		if measuring && !l.measured {
			l.measured = true
			l.tr.reset() // spans cover the measured phase only
		}
		for n := 0; n < kvWindow && l.busy < kvWindow; n++ {
			l.issue(measuring)
		}
		if l.busy > 0 && !l.complete(measuring, l.busy == kvWindow) {
			return
		}
	}
	for l.busy > 0 {
		if !l.complete(false, true) {
			return
		}
	}
}

type kvDeploy struct {
	sys    *system.System
	dev    *countingDevice
	store  *kv.Store
	sess   *kv.Session
	newDur time.Duration
}

func (d *kvDeploy) close() {
	d.store.Close()
	d.sys.Close()
}

func buildKV(salt uint64, gen *ycsb.Generator, hub *telemetry.Telemetry, tr *tracer) (*kvDeploy, error) {
	cfg := system.DefaultConfig()
	cfg.Threads = 2 // the session's queue set and the log flusher's
	cfg.RegionSize = kvRegionBytes
	cfg.PoolReplicas = 2
	cfg.Telemetry = hub
	t0 := time.Now()
	sys, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &kvDeploy{sys: sys, newDur: time.Since(t0)}
	d.dev = &countingDevice{inner: devices.NewCowbirdDevice(sys.Client, sys.Region), tr: tr}
	d.store, err = kv.Open(d.dev, kv.Config{
		IndexSize:    kvRecords,
		MemSize:      kvMemBytes,
		PageSize:     kvPageBytes,
		DiskReadSize: kvReadSize,
		MaxInflight:  64,
	})
	if err != nil {
		sys.Close()
		return nil, err
	}
	d.sess = d.store.NewSession(0)
	var val [recordBytes]byte
	for i := 0; i < kvRecords; i++ {
		fillRecord(val[:], salt, uint32(i), 0)
		if err := d.sess.Upsert(gen.Key(int64(i)), val[:]); err != nil {
			d.close()
			return nil, fmt.Errorf("load record %d: %w", i, err)
		}
	}
	return d, nil
}

func runKV(o opts, traced bool, seconds float64) (*result, error) {
	salt := mix64(o.seed ^ 0x4B56)
	r := &result{layer: map[string]float64{}, notes: map[string]any{}}
	var hub *telemetry.Telemetry
	var tr *tracer
	if traced {
		hub = telemetry.New(telemetry.Config{})
		tr = newTracer()
	}
	gen, err := ycsb.NewGenerator(ycsb.WorkloadB(kvRecords, recordBytes, ycsb.ScrambledZipfian), int64(o.seed))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := buildKV(salt, gen, hub, tr)
	if err != nil {
		return nil, err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	defer d.close()
	r.layer["system.new_ms"] = float64(d.newDur) / 1e6

	clk := newMeasureClock(seconds, time.Second)
	l := &kvLoad{s: d.sess, gen: gen, salt: salt, ver: make([]uint32, kvRecords), tr: tr,
		clk: clk, lat: newLat(clk)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.run()
	}()
	var rt runtimeMeter
	var sp0, sp1 spot.Stats
	var fb0, fb1 rdma.Stats
	var hs hubSnap
	var dv0, dv1 [3]int64
	devSnap := func() [3]int64 {
		return [3]int64{d.dev.reads.Load(), d.dev.readBytes.Load(), d.dev.flushBytes.Load()}
	}
	bounds := clk.run(func(i int) {
		switch i {
		case 0:
			hs.take(hub)
			sp0, fb0, dv0 = d.sys.Spot.Stats(), d.sys.Fabric.Stats(), devSnap()
		case clk.n:
			sp1, fb1, dv1 = d.sys.Spot.Stats(), d.sys.Fabric.Stats(), devSnap()
		}
		rt.snap(i, clk.n)
	})
	wg.Wait()
	rt.finish(r, bounds, []*lat{l.lat})
	r.rssMB = peakRSSMB()

	r.attempted, r.failed = l.attempted, l.failed
	for _, e := range l.errs {
		fmt.Fprintf(os.Stderr, "perfbench: kv-ycsb: %s\n", e)
	}
	if n := d.dev.flushErrs.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: kv-ycsb: %d log page flushes failed\n", n)
		r.failed += n
	}
	if tail := d.store.TailAddress(); tail > d.dev.Size() {
		fmt.Fprintf(os.Stderr, "perfbench: kv-ycsb: log tail %d outgrew the %d-byte device\n", tail, d.dev.Size())
		r.failed++
	}

	ops := float64(max(r.ops, 1))
	L := r.layer
	spotLayer(L, sp1, sp0, ops, r.seconds)
	fabricLayer(L, fb1, fb0, ops, float64(dv1[1]-dv0[1]+dv1[2]-dv0[2]))
	L["kv.cold_read_frac"] = ratio(float64(l.cold), float64(l.reads))
	L["devices.reads_per_cold_read"] = ratio(float64(dv1[0]-dv0[0]), float64(l.cold))
	L["devices.flush_bytes_per_user_byte"] = ratio(float64(dv1[2]-dv0[2]), float64(l.upserts*(kvKeyBytes+recordBytes)))
	if traced {
		trs := []*tracer{tr}
		L["kv.hot_read_ns"] = meanSpan(trs, spKVHot)
		L["kv.upsert_ns"] = meanSpan(trs, spKVUpsert)
		_, completeNs := totalSpan(trs, spKVComplete)
		nCold, _ := totalSpan(trs, spKVCold)
		L["kv.complete_pending_ns_per_cold"] = ratio(float64(completeNs), float64(nCold))
		L["devices.poll_ns"] = meanSpan(trs, spDevPoll)
		hs.report(L, hub)
		r.tracers = trs
	}
	return r, nil
}
