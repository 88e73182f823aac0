package spot

import (
	"bytes"
	"testing"
	"time"

	"cowbird/internal/rdma"
	"cowbird/internal/telemetry"
	"cowbird/internal/wire"
)

// TestStageTimingsSampled runs a workload through a telemetry-enabled spot
// engine with SampleEvery=1 and checks that every serve-round stage
// histogram observed samples and that the round counter matches the gauges.
func TestStageTimingsSampled(t *testing.T) {
	f := rdma.NewFabric()
	t.Cleanup(f.Close)
	engNIC := rdma.NewNIC(f, wire.MAC{2, 0xAA, 0, 0, 0, 0x31}, wire.IPv4Addr{10, 7, 0, 0x31}, rdma.DefaultConfig())
	t.Cleanup(engNIC.Close)
	hub := telemetry.New(telemetry.Config{SampleEvery: 1})
	cfg := DefaultConfig()
	cfg.ProbeInterval = 2 * time.Microsecond
	cfg.Telemetry = hub
	eng := New(engNIC, cfg)
	client, _ := wireInstance(t, f, eng, 0)
	eng.Run()
	t.Cleanup(eng.Stop)

	reg := telemetry.NewRegistry()
	eng.RegisterMetrics(reg)

	th, _ := client.Thread(0)
	data := bytes.Repeat([]byte{0x77}, 256)
	const rounds = 4
	for i := 0; i < rounds; i++ {
		if err := th.WriteSync(0, data, uint64(i)*256, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		dest := make([]byte, 256)
		if err := th.ReadSync(0, uint64(i)*256, dest, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dest, data) {
			t.Fatalf("round %d data mismatch", i)
		}
	}

	// Every round is sampled, so each stage must have at least one
	// observation for each of the 2*rounds served requests (probe fires on
	// idle rounds too, so it dominates).
	if hub.StageProbe.Count() == 0 {
		t.Fatal("no probe timings sampled")
	}
	if hub.StageFetch.Count() == 0 {
		t.Fatal("no fetch timings sampled")
	}
	if hub.StageExecute.Count() == 0 {
		t.Fatal("no execute timings sampled")
	}
	if hub.StagePublish.Count() == 0 {
		t.Fatal("no publish timings sampled")
	}
	if hub.StageService.Count() == 0 {
		t.Fatal("no service timings sampled")
	}
	if got := hub.EngineRounds.Value(); got == 0 {
		t.Fatal("no serving rounds counted")
	}
	snap := reg.Snapshot()
	if snap.Gauges["cowbird_spot_entries_served"] != 2*rounds {
		t.Fatalf("entries served gauge = %d, want %d", snap.Gauges["cowbird_spot_entries_served"], 2*rounds)
	}
	if snap.Gauges["cowbird_spot_probes"] == 0 || snap.Gauges["cowbird_spot_red_updates"] == 0 {
		t.Fatalf("gauges not wired: %+v", snap.Gauges)
	}
}
