package serve

import (
	"encoding/json"
	"fmt"
	"io"
)

// Kind tags one event-log record. The five admission kinds come first and
// render as trace instants; the seven pipeline-stage kinds of an executed
// round follow and render as "X" spans.
type Kind uint8

const (
	// KindSubmit is one external Server.Submit call and its deterministic
	// accepted/rejected split.
	KindSubmit Kind = iota + 1
	// KindReject is an autonomous-arrival overflow: credits an open-loop
	// burst offered beyond the tenant's queue cap.
	KindReject
	// KindResize is one online K transition.
	KindResize
	// KindDecision is an autoscaler verdict WITH its full window inputs —
	// the "why" behind (or deliberately withheld before) a resize.
	KindDecision
	// KindDrain marks the admission stop.
	KindDrain
	// KindWait is the scheduled credit's admission-queue wait. It is
	// measured in ROUNDS, not simulated time units, so it renders as a
	// zero-length span carrying the wait as an argument.
	KindWait
	// KindSchedule is the band→shard scheduling decision: how many tenant
	// steps were placed on the K shards this round.
	KindSchedule
	// KindPartition is the pool's union-find component census over the
	// scheduled batches: disjoint components, forced serial merges.
	KindPartition
	// KindQuorum is the retrieval leg of a tenant's step: the phase loop
	// that reads a live quorum of every addressed variable's copies.
	KindQuorum
	// KindCommit is the update leg: the phase loop that writes the new
	// values through to a quorum of copies.
	KindCommit
	// KindRoute is one shard's interconnect view of the same step: routed
	// cycles (the step's full duration on a cycle-timed fabric, 0 on the
	// unit-cost bipartite graph) as its duration.
	KindRoute
	// KindMerge closes the round: reports folded into tenant accounting at
	// the round's makespan point.
	KindMerge
)

var kindNames = [...]string{
	KindSubmit: "submit", KindReject: "reject", KindResize: "resize",
	KindDecision: "decision", KindDrain: "drain", KindWait: "wait",
	KindSchedule: "schedule", KindPartition: "partition", KindQuorum: "quorum",
	KindCommit: "commit", KindRoute: "route", KindMerge: "merge",
}

// String returns the kind's trace-event name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-width event-log record. Round is the admission round
// it belongs to; Start is its timestamp on the log's virtual clock
// (simulated time units) and Dur its length (0 for admission events).
// Track is the tenant id for submit, reject, wait, quorum and commit and
// the shard id for route; the other kinds ignore it. The arguments per
// kind:
//
//	KindSubmit:    A = accepted, B = rejected
//	KindReject:    A = rejected credits
//	KindResize:    K = from, To = to
//	KindDecision:  K = current, To = target (0 = hold); A, B, C = rejected,
//	               executed-round and merged-round deltas; F1, F2, F3 =
//	               queue-fill fraction, mean active shards, merged-round
//	               fraction over the decision window
//	KindWait:      A = wait in rounds
//	KindSchedule:  A = scheduled steps, B = K
//	KindPartition: A = disjoint components, B = forced merges, C = active shards
//	KindQuorum:    A = read phases, B = live-request area (Σ live over phases)
//	KindCommit:    A = write phases
//	KindRoute:     A = fabric cycles delta, B = hops delta, C = peak module load
//	KindMerge:     A = active shards, B = makespan, C = summed work
//
// The record holds no pointers or strings, so the ring is one allocation
// and appending is a struct store into a preallocated slot.
type Event struct {
	Round, Start, Dur int64
	A, B, C           int64
	F1, F2, F3        float64
	Track, K, To      int32
	Kind              Kind
}

// EventLog is the server's fixed-size ring of Events plus the virtual
// clock they are stamped on. The clock advances by each executed round's
// makespan (idle rounds record nothing and cost nothing), so the trace
// timeline is the serving run's simulated critical path; admission events
// take the clock's value when they happen. The ring keeps the most recent
// events and counts what it overwrote. Everything recorded is a pure
// function of (seed, specs, arrival script): a live run's dump and its
// `serve replay -events` re-derivation are byte-identical.
type EventLog struct {
	ring  []Event
	total int64 // events ever pushed
	vt    int64 // virtual clock (simulated time units)
}

// newEventLog builds a ring holding the most recent `depth` events
// (depth < 1 is clamped to 1).
func newEventLog(depth int) *EventLog {
	if depth < 1 {
		depth = 1
	}
	return &EventLog{ring: make([]Event, depth)}
}

// push appends one event, overwriting the oldest once the ring is full.
//
//pram:hotpath
func (l *EventLog) push(ev Event) {
	l.ring[l.total%int64(len(l.ring))] = ev
	l.total++
}

// Now returns the current virtual timestamp.
//
//pram:hotpath
func (l *EventLog) Now() int64 { return l.vt }

// advance moves the virtual clock forward by d simulated time units.
//
//pram:hotpath
func (l *EventLog) advance(d int64) { l.vt += d }

// Total reports how many events were ever recorded.
func (l *EventLog) Total() int64 { return l.total }

// Len reports how many events the ring currently holds.
func (l *EventLog) Len() int {
	if l.total < int64(len(l.ring)) {
		return int(l.total)
	}
	return len(l.ring)
}

// Dropped reports how many events the ring has overwritten.
func (l *EventLog) Dropped() int64 { return l.total - int64(l.Len()) }

// Events appends the retained events, oldest first, to dst and returns it.
func (l *EventLog) Events(dst []Event) []Event {
	n := int64(l.Len())
	for i := l.total - n; i < l.total; i++ {
		dst = append(dst, l.ring[i%int64(len(l.ring))])
	}
	return dst
}

// Events exposes the server's event log (diagnostics and tests).
func (s *Server) Events() *EventLog { return s.events }

// Track pids of the trace's three process groups.
const (
	pidServer  = 0 // the pipeline thread: schedule, partition, merge, resize, decision, drain
	pidTenants = 1 // one thread per tenant: submit, reject, wait, quorum, commit
	pidShards  = 2 // one thread per shard: route
)

// WriteEvents dumps the event log as a deterministic Chrome/Perfetto
// trace-event JSON document: fixed key order, metadata first (process and
// thread names for the server, tenant and shard tracks), then the retained
// events oldest first, pipeline stages as "X" spans and admission events
// as "i" instants, with ts/dur on the virtual clock. limit > 0 emits only
// the most recent limit events, and the document's dropped count absorbs
// the truncation, so a cut dump never pretends to be complete. Call
// between rounds (or after drain); dumping allocates and is not part of
// the hot path.
func (s *Server) WriteEvents(w io.Writer, limit int) error {
	l := s.events
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	evs := l.Events(nil)
	if limit > 0 && limit < len(evs) {
		evs = evs[len(evs)-limit:]
	}
	// Shard tracks come from the emitted events themselves, so the
	// metadata is as deterministic as the event stream (and a truncated
	// dump only names shards it actually shows).
	maxShard := int32(-1)
	for i := range evs {
		if evs[i].Kind == KindRoute && evs[i].Track > maxShard {
			maxShard = evs[i].Track
		}
	}
	names := make([]string, len(s.tenants))
	for i, t := range s.tenants {
		names[i] = jsonString(t.cfg.Name)
	}
	pf("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"total\":%d,\"dropped\":%d,\"clock\":%d},\"traceEvents\":[\n",
		l.total, l.total-int64(len(evs)), l.vt)
	pf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"server\"}},\n", pidServer)
	pf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"pipeline\"}},\n", pidServer)
	pf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"tenants\"}},\n", pidTenants)
	for i, name := range names {
		pf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":%s}},\n",
			pidTenants, i, name)
	}
	pf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"shards\"}}", pidShards)
	for sh := int32(0); sh <= maxShard; sh++ {
		pf(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"shard %d\"}}",
			pidShards, sh, sh)
	}
	for i := range evs {
		pf(",\n")
		writeEvent(pf, &evs[i], names)
	}
	pf("\n]}\n")
	return err
}

// writeEvent renders one event with its kind-specific args, keys in fixed
// order. names holds the tenants' names, already JSON-encoded.
func writeEvent(pf func(string, ...any), ev *Event, names []string) {
	pid, tid := pidServer, int32(0)
	switch ev.Kind {
	case KindSubmit, KindReject, KindWait, KindQuorum, KindCommit:
		pid, tid = pidTenants, ev.Track
	case KindRoute:
		pid, tid = pidShards, ev.Track
	}
	if ev.Kind < KindWait { // the admission kinds
		pf("{\"name\":\"%s\",\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"args\":{\"round\":%d",
			ev.Kind, pid, tid, ev.Start, ev.Round)
	} else {
		pf("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"round\":%d",
			ev.Kind, pid, tid, ev.Start, ev.Dur, ev.Round)
	}
	switch ev.Kind {
	case KindSubmit:
		pf(",\"tenant\":%s,\"accepted\":%d,\"rejected\":%d", names[ev.Track], ev.A, ev.B)
	case KindReject:
		pf(",\"tenant\":%s,\"rejected\":%d", names[ev.Track], ev.A)
	case KindResize:
		pf(",\"from\":%d,\"to\":%d", ev.K, ev.To)
	case KindDecision:
		action := "hold"
		switch {
		case ev.To > ev.K:
			action = "grow"
		case ev.To != 0 && ev.To < ev.K:
			action = "shrink"
		}
		// %g is strconv's shortest round-trip form: deterministic, and
		// always a JSON number for the finite fractions a window yields.
		pf(",\"action\":\"%s\",\"k\":%d,\"to\":%d,\"rej_delta\":%d,\"exec_delta\":%d,\"merged_delta\":%d,"+
			"\"queue_frac\":%g,\"avg_active\":%g,\"merge_frac\":%g",
			action, ev.K, ev.To, ev.A, ev.B, ev.C, ev.F1, ev.F2, ev.F3)
	case KindWait:
		pf(",\"wait_rounds\":%d", ev.A)
	case KindSchedule:
		pf(",\"scheduled\":%d,\"k\":%d", ev.A, ev.B)
	case KindPartition:
		pf(",\"components\":%d,\"merges\":%d,\"active\":%d", ev.A, ev.B, ev.C)
	case KindQuorum:
		pf(",\"phases\":%d,\"live_area\":%d", ev.A, ev.B)
	case KindCommit:
		pf(",\"phases\":%d", ev.A)
	case KindRoute:
		pf(",\"cycles\":%d,\"hops\":%d,\"peak_module_load\":%d", ev.A, ev.B, ev.C)
	case KindMerge:
		pf(",\"active\":%d,\"makespan\":%d,\"work\":%d", ev.A, ev.B, ev.C)
	}
	pf("}}")
}

// jsonString renders s as a JSON string literal. Tenant names are
// caller-chosen, and strconv.Quote's Go escapes (\x01, \xff) are not JSON.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // marshaling a string cannot fail
	return string(b)
}
