package kv

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

var errInjected = errors.New("kv test: injected write failure")

// failingDevice wraps a Device so that WriteAsync fails while a shared
// failure budget lasts.
type failingDevice struct {
	Device
	fails atomic.Int64 // WriteAsync calls still to fail
}

func (d *failingDevice) Session(threadID int) DeviceSession {
	return &failingSession{DeviceSession: d.Device.Session(threadID), d: d}
}

type failingSession struct {
	DeviceSession
	d *failingDevice
}

func (s *failingSession) WriteAsync(off uint64, src []byte) (Token, error) {
	if s.d.fails.Add(-1) >= 0 {
		return 0, errInjected
	}
	return s.DeviceSession.WriteAsync(off, src)
}

func openFailing(t *testing.T, fails int64) (*Store, *failingDevice) {
	t.Helper()
	dev := &failingDevice{Device: NewLocalDevice(1 << 26)}
	dev.fails.Store(fails)
	st, err := Open(dev, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st, dev
}

func recordValue(i int) []byte {
	val := bytes.Repeat([]byte{0xEE}, 100)
	copy(val, fmt.Sprintf("record-%04d", i))
	return val
}

// TestFlushRetriesFailedPageWrite: a log page whose device write fails a
// few times is retried, not skipped, so every key — the cold ones read
// back from the device included — returns its own value.
func TestFlushRetriesFailedPageWrite(t *testing.T) {
	st, dev := openFailing(t, 3)
	s := st.NewSession(0)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Upsert([]byte(fmt.Sprintf("key-%04d", i)), recordValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if dev.fails.Load() >= 0 {
		t.Fatal("no write failure was injected; test is vacuous")
	}
	if st.HeadAddress() == st.log.begin() {
		t.Fatal("log never spilled; test is vacuous")
	}
	for i := 0; i < n; i++ {
		got, status := readSync(t, s, []byte(fmt.Sprintf("key-%04d", i)))
		if status != StatusOK || !bytes.Equal(got, recordValue(i)) {
			t.Fatalf("key %d: status %v, value %q", i, status, got)
		}
	}
}

// TestFlushFailureIsSticky: a device that never accepts a write makes
// Upsert fail with the device's error once the in-memory log is full,
// instead of hanging or dropping pages; every key written before that
// still reads back from memory.
func TestFlushFailureIsSticky(t *testing.T) {
	st, _ := openFailing(t, 1<<62)
	s := st.NewSession(0)
	written := 0
	var err error
	for ; written < 5000; written++ {
		if err = s.Upsert([]byte(fmt.Sprintf("key-%04d", written)), recordValue(written)); err != nil {
			break
		}
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("Upsert after a failing flush: err = %v, want the device's write error", err)
	}
	for i := 0; i < written; i++ {
		got, status := readSync(t, s, []byte(fmt.Sprintf("key-%04d", i)))
		if status != StatusOK || !bytes.Equal(got, recordValue(i)) {
			t.Fatalf("key %d: status %v, value %q", i, status, got)
		}
	}
}
