package rdma

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelSendFencesLateReadDMA is the regression test for the
// abandoned-round staging race: a consumer that gives up waiting on a READ
// (engine-level timeout) and reuses the buffer must be able to fence the
// WR so the response, when it finally arrives, does not DMA into memory
// that now belongs to someone else. The fabric holds responses back with
// injected latency; the READ is canceled while its response is in flight,
// and the local buffer must still hold the owner's bytes after the
// response lands.
func TestCancelSendFencesLateReadDMA(t *testing.T) {
	p := newPair(t, DefaultConfig())
	local := make([]byte, 64)
	remote := make([]byte, 64)
	for i := range remote {
		remote[i] = 0xEE
	}
	p.cli.RegisterMR(0x1000, local)
	srvMR := p.srv.RegisterMR(0x9000, remote)

	// Hold every frame 20 ms: the READ request and its response are both in
	// flight long enough to cancel deterministically.
	p.fabric.SetLatency(20 * time.Millisecond)
	if err := p.cliQP.PostSend(WorkRequest{
		ID: 1, Verb: VerbRead, LocalVA: 0x1000, Length: 64,
		RemoteVA: 0x9000, RKey: srvMR.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if !p.cliQP.CancelSend(1) {
		t.Fatal("CancelSend: WR not found in send queue")
	}

	// The owner reuses the buffer immediately — the point of the fence.
	want := bytes.Repeat([]byte{0x55}, 64)
	copy(local, want)

	// The canceled WR still completes on the CQ (the protocol stream is
	// untouched); only its DMA is suppressed.
	es := waitCQE(t, p.cliCQ, 1, 5*time.Second)
	if es[0].WRID != 1 || es[0].Status != StatusOK {
		t.Fatalf("bad CQE for canceled read: %+v", es[0])
	}
	quiesce(p)
	if !bytes.Equal(local, want) {
		t.Fatalf("late response DMAed into canceled WR's buffer: % x", local[:8])
	}

	// Canceling a completed WR reports false: its DMA already happened.
	if p.cliQP.CancelSend(1) {
		t.Fatal("CancelSend returned true for a retired WR")
	}
}

// TestCancelSendKeepsStreamUsable checks that canceling one WR does not
// perturb Go-Back-N for the requests behind it: a second READ posted after
// the canceled one still completes with correct data.
func TestCancelSendKeepsStreamUsable(t *testing.T) {
	p := newPair(t, DefaultConfig())
	local := make([]byte, 128)
	remote := make([]byte, 128)
	for i := range remote {
		remote[i] = byte(i)
	}
	p.cli.RegisterMR(0x1000, local)
	srvMR := p.srv.RegisterMR(0x9000, remote)

	p.fabric.SetLatency(5 * time.Millisecond)
	if err := p.cliQP.PostSend(WorkRequest{
		ID: 1, Verb: VerbRead, LocalVA: 0x1000, Length: 64,
		RemoteVA: 0x9000, RKey: srvMR.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	p.cliQP.CancelSend(1)
	if err := p.cliQP.PostSend(WorkRequest{
		ID: 2, Verb: VerbRead, LocalVA: 0x1040, Length: 64,
		RemoteVA: 0x9040, RKey: srvMR.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	es := waitCQE(t, p.cliCQ, 2, 5*time.Second)
	for _, e := range es {
		if e.Status != StatusOK {
			t.Fatalf("completion failed: %+v", e)
		}
	}
	quiesce(p)
	if !bytes.Equal(local[64:], remote[64:]) {
		t.Fatal("uncanceled read behind a canceled one returned wrong data")
	}
	if !bytes.Equal(local[:64], make([]byte, 64)) {
		t.Fatal("canceled read's buffer was written")
	}
}

// TestCancelSendSnapshotsWritePayload: Go-Back-N keeps retransmitting a
// canceled WRITE, so an owner that reuses the buffer right after the cancel
// must never see its new bytes reach the responder. The link drops every
// frame while the WRITE is posted, canceled, and its buffer rewritten
// round after round — retransmissions fire throughout — then heals. The
// responder must hold the pre-cancel bytes or nothing; under -race the
// test also catches a retransmission reading the buffer while the owner
// rewrites it.
func TestCancelSendSnapshotsWritePayload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetransmitTimeout = 200 * time.Microsecond
	cfg.MaxRetries = 100_000
	p := newPair(t, cfg)
	local := make([]byte, 2*cfg.MTU) // two packets per transmission
	remote := make([]byte, len(local))
	p.cli.RegisterMR(0x1000, local)
	srvMR := p.srv.RegisterMR(0x9000, remote)
	want := bytes.Repeat([]byte{0xA1}, len(local))
	copy(local, want)

	var lossy atomic.Bool
	lossy.Store(true)
	p.fabric.SetLossFn(func([]byte) bool { return lossy.Load() })
	if err := p.cliQP.PostSend(WorkRequest{
		ID: 1, Verb: VerbWrite, LocalVA: 0x1000, Length: uint32(len(local)),
		RemoteVA: 0x9000, RKey: srvMR.RKey,
	}); err != nil {
		t.Fatal(err)
	}
	if !p.cliQP.CancelSend(1) {
		t.Fatal("CancelSend: WR not found in send queue")
	}
	for round := 0; round < 20; round++ {
		for i := range local {
			local[i] = byte(round)
		}
		time.Sleep(100 * time.Microsecond)
	}
	lossy.Store(false)

	es := waitCQE(t, p.cliCQ, 1, 5*time.Second)
	if es[0].WRID != 1 || es[0].Status != StatusOK {
		t.Fatalf("bad CQE for canceled write: %+v", es[0])
	}
	quiesce(p)
	if !bytes.Equal(remote, want) && !bytes.Equal(remote, make([]byte, len(remote))) {
		t.Fatalf("responder received bytes written after the cancel: % x", remote[:8])
	}
}
