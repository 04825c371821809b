package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Parent is the id of the
// span that caused it (0 for a root) and Op the benchmark op it served.
type span struct {
	ID, Parent int64
	Name       string
	Track      int
	Start, End time.Duration // since the tracer's origin
	Op         int64
}

// tracer keeps spans in a bounded in-memory buffer and writes them as
// Chrome trace-event JSON at exit. Spans past the bound are counted, not
// kept. Ids are handed out before a span ends, so children that finish
// first can name their parent. Safe for concurrent use.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	tracks  map[int]string
}

// spanLimit bounds the buffer: enough for a few seconds of the busiest
// workload, small enough that the trace file opens quickly.
const spanLimit = 200_000

func newTracer() *tracer {
	return &tracer{origin: time.Now(), tracks: map[int]string{}}
}

// id reserves a span id.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// add records a finished span.
func (t *tracer) add(id, parent int64, name string, track int, start, end time.Time, op int64) {
	t.mu.Lock()
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Track: track,
			Start: start.Sub(t.origin), End: end.Sub(t.origin), Op: op})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// nameTrack labels a track (a Perfetto thread row).
func (t *tracer) nameTrack(track int, name string) {
	t.mu.Lock()
	t.tracks[track] = name
	t.mu.Unlock()
}

// writeChrome writes the kept spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open. Each event's args
// carry its id, parent, op and self time: its duration minus the part its
// kept children cover.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	io.WriteString(bw, `{"displayTimeUnit":"ns","otherData":{"kept":`)
	enc.Encode(len(t.spans))
	io.WriteString(bw, `,"dropped":`)
	enc.Encode(t.dropped)
	io.WriteString(bw, `},"traceEvents":[`)
	first := true
	emit := func(e event) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		enc.Encode(e)
	}
	tracks := make([]int, 0, len(t.tracks))
	for tr := range t.tracks {
		tracks = append(tracks, tr)
	}
	sort.Ints(tracks)
	for _, tr := range tracks {
		emit(event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tr, Args: map[string]any{"name": t.tracks[tr]}})
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range t.spans {
		dur := s.End - s.Start
		emit(event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(dur), Pid: 1, Tid: s.Track,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "self_us": us(dur - child[s.ID])}})
	}
	io.WriteString(bw, "]}\n")
	return bw.Flush()
}
