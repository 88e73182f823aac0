package main

import (
	"testing"
	"time"

	"cowbird/internal/ycsb"
)

// TestVerifiersTripOnPokedByte corrupts one byte of one record straight in
// the pool and checks that both the per-read check and the end-of-run
// audit notice.
func TestVerifiersTripOnPokedByte(t *testing.T) {
	salt := mix64(42)
	d, err := buildRW(kindUniform, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.sys.Close()
	issued := make([]uint32, rwRecords)
	if bad, err := auditRecords(d.sys, salt, issued); err != nil || bad != 0 {
		t.Fatalf("clean audit: %d bad, err %v", bad, err)
	}
	th, err := d.sys.Client.Thread(0)
	if err != nil {
		t.Fatal(err)
	}
	const key = 12345
	buf := make([]byte, recordBytes)
	if err := th.ReadSync(d.sys.Region.ID, key*recordBytes, buf, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !checkRecord(buf, salt, key, 0, 0) {
		t.Fatal("intact record failed its check")
	}
	if err := d.sys.Pool.Poke(d.sys.Region.ID, key*recordBytes+37, []byte{buf[37] ^ 0x10}); err != nil {
		t.Fatal(err)
	}
	if err := th.ReadSync(d.sys.Region.ID, key*recordBytes, buf, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if checkRecord(buf, salt, key, 0, 0) {
		t.Error("read check passed a record with a poked byte")
	}
	if bad, err := auditRecords(d.sys, salt, issued); err != nil || bad != 1 {
		t.Errorf("audit after poke: %d bad records, err %v; want 1", bad, err)
	}
	// A write the audit expects but that never landed is caught too.
	issued[key+1] = 3
	if bad, _ := auditRecords(d.sys, salt, issued); bad != 2 {
		t.Errorf("audit with a missing write: %d bad records, want 2", bad)
	}
}

// TestFleetAuditTripsOnForeignByte pokes one byte into an idle tenant's
// extent, as a misrouted write from another tenant would leave it.
func TestFleetAuditTripsOnForeignByte(t *testing.T) {
	salt := mix64(43)
	d, err := buildFleet(43, salt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.f.Close()
	if bad, err := auditFleet(d, salt); err != nil || bad != 0 {
		t.Fatalf("clean audit: %d bad, err %v", bad, err)
	}
	idle := 0
	for _, a := range d.active {
		if a.id == idle {
			idle++
		}
	}
	ten, _ := d.f.Tenant(idle)
	e := ten.Extents()[0]
	if err := d.f.Memnode(e.Memnode).Poke(e.NodeRegionID, 100, []byte{0xA5}); err != nil {
		t.Fatal(err)
	}
	if bad, err := auditFleet(d, salt); err != nil || bad != 1 {
		t.Errorf("audit after poke: %d bad, err %v; want 1", bad, err)
	}
}

// TestKVVerifierTripsOnWrongValue reads one key whose stored value is not
// the version the generator expects, once from memory and once cold.
func TestKVVerifierTripsOnWrongValue(t *testing.T) {
	salt := mix64(44)
	gen, err := ycsb.NewGenerator(ycsb.WorkloadB(kvRecords, recordBytes, ycsb.ScrambledZipfian), 44)
	if err != nil {
		t.Fatal(err)
	}
	d, err := buildKV(salt, gen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	clk := newMeasureClock(1, 0)
	l := &kvLoad{s: d.sess, gen: gen, salt: salt, ver: make([]uint32, kvRecords), clk: clk, lat: newLat(clk)}
	drain := func() {
		for l.busy > 0 {
			if !l.complete(false, true) {
				t.Fatal("cold reads lost")
			}
		}
	}
	const cold, hot = 0, kvRecords - 1 // loaded first (flushed) and last (in memory)
	l.read(cold, false)
	l.read(hot, false)
	drain()
	if l.failed != 0 {
		t.Fatalf("intact reads failed: %v", l.errs)
	}
	l.ver[hot], l.ver[cold] = 1, 1 // the store still holds version 0
	l.read(cold, false)
	l.read(hot, false)
	drain()
	if l.failed != 2 {
		t.Errorf("%d reads of stale values failed, want 2: %v", l.failed, l.errs)
	}
}

// TestWorkloadsSmoke runs each workload briefly through the same path as
// the command and checks the result is complete and correct.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every deployment")
	}
	for _, name := range []string{"uniform-rw", "zipf-cached", "kv-ycsb", "fleet-sparse"} {
		t.Run(name, func(t *testing.T) {
			out, record, err := execute(workloads[name], opts{workload: name, seed: 9, seconds: 1, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("result not correct: %+v", out)
			}
			for _, m := range endToEnd {
				got, ok := out.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("metric %s = %+v (present %v)", m.name, got, ok)
				}
			}
			if record["host"] == nil {
				t.Error("no host record")
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs the traced mode once and checks the
// per-layer metrics and the span file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two deployments")
	}
	spans := t.TempDir() + "/spans.tsv"
	out, _, err := execute(workloads["kv-ycsb"], opts{workload: "kv-ycsb", seed: 9, seconds: 2, setups: 1, trace: true, spanFile: spans})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatalf("traced run not correct: %+v", out)
	}
	for _, m := range perLayer {
		if _, ok := out.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	for _, name := range []string{"kv.hot_read_ns", "kv.upsert_ns", "devices.reads_per_cold_read", "spot.replica_writes_per_op", "rdma.bytes_per_op", "driver.trace_overhead"} {
		if !(out.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0 on kv-ycsb", name, out.Metrics[name].Value)
		}
	}
}
