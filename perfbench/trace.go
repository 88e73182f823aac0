package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Tracing for the traced run. Each load goroutine (and the kv store's
// flusher, through the counting device) owns one tracer, so recording takes
// no lock. A span is recorded around each call the benchmark makes into a
// layer's public API: its kind, its start and end, the span that was open
// when it began (the caller), and the request it belongs to. Every span is
// added to per-kind totals; the first spanCap spans of each tracer are also
// kept in a preallocated buffer and written out when the run ends.
type spanKind uint8

const (
	spIssue      spanKind = iota // core: AsyncRead/AsyncWrite that pushed a ring entry
	spHit                        // cache: AsyncRead answered by a local hit
	spPoll                       // core: PollGroup.WaitErr / Thread.Completed
	spKVHot                      // kv: Session.Read answered from memory
	spKVCold                     // kv: Session.Read that went pending
	spKVUpsert                   // kv: Session.Upsert
	spKVComplete                 // kv: Session.CompletePending
	spDevRead                    // devices: ReadAsync
	spDevPoll                    // devices: Poll
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.issue", "cache.hit", "core.poll", "kv.read_hot", "kv.read_cold",
	"kv.upsert", "kv.complete_pending", "devices.read", "devices.poll",
}

const spanCap = 1 << 15

type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span in the same tracer, -1 if none
	req        uint64
	start, end int64
}

type tracer struct {
	count [numSpanKinds]int64
	sumNs [numSpanKinds]int64
	spans []span
	cur   int32 // innermost open span, -1 if none
	req   uint64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, spanCap), cur: -1} }

// spanTok is an open span. It lives on the caller's stack.
type spanTok struct {
	idx, parent int32
	start       int64
}

// open starts a span of the current request.
func (t *tracer) open(kind spanKind) spanTok {
	tok := spanTok{idx: -1, parent: t.cur, start: now()}
	if len(t.spans) < cap(t.spans) {
		tok.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{kind: kind, parent: t.cur, req: t.req, start: tok.start})
		t.cur = tok.idx
	}
	return tok
}

// close ends the span under kind, which may differ from the kind it was
// opened with when the outcome decides it (a read that hit or went pending).
// It returns the span's duration.
func (t *tracer) close(tok spanTok, kind spanKind) int64 {
	end := now()
	d := end - tok.start
	t.count[kind]++
	t.sumNs[kind] += d
	if tok.idx >= 0 {
		t.spans[tok.idx].kind = kind
		t.spans[tok.idx].end = end
		t.cur = tok.parent
	}
	return d
}

// mean returns the mean duration in ns of the kind's spans over tracers.
func meanSpan(trs []*tracer, kind spanKind) float64 {
	n, sum := totalSpan(trs, kind)
	return ratio(float64(sum), float64(n))
}

// totalSpan returns the count and summed duration of the kind's spans.
func totalSpan(trs []*tracer, kind spanKind) (n, sumNs int64) {
	for _, t := range trs {
		n += t.count[kind]
		sumNs += t.sumNs[kind]
	}
	return n, sumNs
}

// writeSpans writes every kept span as one tab-separated line:
// tracer, index, parent, request, kind, start_ns, end_ns.
func writeSpans(path string, trs []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\tspan\tparent\treq\tkind\tstart_ns\tend_ns")
	for ti, t := range trs {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", ti, i, s.parent, s.req, spanNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var epoch = time.Now()

// now is monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// reset forgets everything recorded so far. Nil-safe.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.count, t.sumNs = [numSpanKinds]int64{}, [numSpanKinds]int64{}
	t.spans, t.cur = t.spans[:0], -1
}
