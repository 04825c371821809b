package replay

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The arrival script ("PRAMARS1") is the second half of the live-serving
// determinism story. A PRAMTRC1 trace captures what the engines DID; the
// arrival script captures what the outside world DID TO the server — the
// wall-clock inputs a live HTTP run is not a pure function without:
//
//	PRAMARS1
//	meta <one opaque line the recorder chose — the deployment spec>
//	a <round> <tenant> <credits>     # Server.Submit at virtual round <round>
//	r <round> <k>                    # Server.Resize to K=<k> before round <round>
//	d <round>                        # admission stopped (drain began) before <round>
//	t <steps> <hash-hex> <name>      # footer: one per tenant, final account
//	end <rounds> <fingerprint-hex>   # footer: total rounds + store fingerprint
//
// Replaying the script — rebuild the deployment from meta, then for every
// virtual round apply its recorded events in file order and execute one
// Round — reproduces the live run bit-for-bit in virtual time: same
// per-tenant report hashes, same store fingerprint, and (because the
// rejection split is a deterministic function of server state) the same
// admission accounting. The format is line-based text on purpose: scripts
// are small (events, not batches — the batches live in the trace), and a
// serving incident report you can read and edit is worth more than a few
// saved bytes. A script without its end line was truncated and every
// reader says so.

// ScriptMagic is the arrival-script format's first line.
const ScriptMagic = "PRAMARS1"

// MaxCredits bounds one submission's credits: far above any queue cap,
// and small enough that no run of submissions wraps a tenant's int64
// accounts. POST /submit answers 400 above it and ReadScript refuses an
// `a` line above it, so every admitted submission is one its script can
// replay.
const MaxCredits = math.MaxInt32

// ScriptEvent is one recorded external event, in virtual round time.
type ScriptEvent struct {
	// Round is the virtual round the event applies BEFORE (the server's
	// round counter at the moment it was applied live).
	Round int64
	// K > 0 makes this a resize event; Credits > 0 a submission of Credits
	// step credits to tenant Tenant; neither, a drain (admission stop).
	K       int
	Tenant  int
	Credits int
}

// IsResize reports whether the event is a K transition.
func (e ScriptEvent) IsResize() bool { return e.K > 0 }

// IsDrain reports whether the event is an admission stop.
func (e ScriptEvent) IsDrain() bool { return e.K == 0 && e.Credits == 0 }

// ScriptTenant is one tenant's footer account: the values a replay must
// reproduce.
type ScriptTenant struct {
	Name  string
	Steps int64
	Hash  uint64
}

// Script is a parsed arrival script.
type Script struct {
	// Meta is the recorder's opaque deployment line (cmd/serve stores the
	// CLI spec strings it rebuilds the server from).
	Meta string
	// Events are the run's external events in application order.
	Events []ScriptEvent
	// Tenants, Rounds and Fingerprint are the footer: the live run's final
	// account, the replay's -check targets.
	Tenants     []ScriptTenant
	Rounds      int64
	Fingerprint uint64
}

// ScriptRecorder streams an arrival script. Events must be recorded in
// application order; Close writes the footer. Writer errors are sticky
// and reported by Close.
type ScriptRecorder struct {
	w   *bufio.Writer
	err error
}

// NewScriptRecorder writes the magic and meta lines onto w. meta must be a
// single line (no newlines).
func NewScriptRecorder(w io.Writer, meta string) (*ScriptRecorder, error) {
	if strings.ContainsAny(meta, "\n\r") {
		return nil, fmt.Errorf("replay: script meta must be a single line")
	}
	r := &ScriptRecorder{w: bufio.NewWriter(w)}
	fmt.Fprintf(r.w, "%s\nmeta %s\n", ScriptMagic, meta)
	return r, nil
}

// Submit records a Server.Submit of n credits to tenant id at the given
// virtual round.
func (r *ScriptRecorder) Submit(round int64, tenant, n int) {
	if r.err == nil {
		_, r.err = fmt.Fprintf(r.w, "a %d %d %d\n", round, tenant, n)
	}
}

// Resize records a Server.Resize to k applied before the given round.
func (r *ScriptRecorder) Resize(round int64, k int) {
	if r.err == nil {
		_, r.err = fmt.Fprintf(r.w, "r %d %d\n", round, k)
	}
}

// Drain records the admission stop (Server.StopAdmission / the start of
// Server.Drain) before the given round.
func (r *ScriptRecorder) Drain(round int64) {
	if r.err == nil {
		_, r.err = fmt.Fprintf(r.w, "d %d\n", round)
	}
}

// Close writes the footer — every tenant's final account plus the round
// count and store fingerprint — flushes, and reports the first error.
func (r *ScriptRecorder) Close(tenants []ScriptTenant, rounds int64, fingerprint uint64) error {
	for _, t := range tenants {
		if r.err == nil {
			_, r.err = fmt.Fprintf(r.w, "t %d %016x %s\n", t.Steps, t.Hash, t.Name)
		}
	}
	if r.err == nil {
		_, r.err = fmt.Fprintf(r.w, "end %d %016x\n", rounds, fingerprint)
	}
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	if r.err != nil {
		return fmt.Errorf("replay: writing script: %w", r.err)
	}
	return nil
}

// ReadScript parses an arrival script, validating the magic, the line
// grammar and the presence of the end line.
func ReadScript(rd io.Reader) (*Script, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("replay: empty script")
	}
	if sc.Text() != ScriptMagic {
		return nil, fmt.Errorf("replay: not an arrival script (magic %q, want %q)", sc.Text(), ScriptMagic)
	}
	s := &Script{}
	sawMeta, sawEnd := false, false
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.ContainsRune(text, '\r') {
			// The recorder cannot write one back: it refuses a CR in meta,
			// and a reader drops a CR that ends a line.
			return nil, fmt.Errorf("replay: script line %d: carriage return inside a line", line)
		}
		if sawEnd {
			return nil, fmt.Errorf("replay: script line %d: content after end line", line)
		}
		op, rest, _ := strings.Cut(text, " ")
		switch op {
		case "meta":
			if sawMeta {
				return nil, fmt.Errorf("replay: script line %d: duplicate meta", line)
			}
			sawMeta = true
			s.Meta = rest
		case "a":
			var ev ScriptEvent
			if err := scanInts(rest, &ev.Round, &ev.Tenant, &ev.Credits); err != nil {
				return nil, fmt.Errorf("replay: script line %d: bad submission %q: %v", line, text, err)
			}
			if ev.Round < 0 || ev.Tenant < 0 || ev.Credits < 1 || ev.Credits > MaxCredits {
				return nil, fmt.Errorf("replay: script line %d: bad submission %q", line, text)
			}
			s.Events = append(s.Events, ev)
		case "r":
			var ev ScriptEvent
			if err := scanInts(rest, &ev.Round, &ev.K); err != nil {
				return nil, fmt.Errorf("replay: script line %d: bad resize %q: %v", line, text, err)
			}
			if ev.Round < 0 || ev.K < 1 {
				return nil, fmt.Errorf("replay: script line %d: bad resize %q", line, text)
			}
			s.Events = append(s.Events, ev)
		case "d":
			var ev ScriptEvent
			if err := scanInts(rest, &ev.Round); err != nil {
				return nil, fmt.Errorf("replay: script line %d: bad drain %q: %v", line, text, err)
			}
			if ev.Round < 0 {
				return nil, fmt.Errorf("replay: script line %d: bad drain %q", line, text)
			}
			s.Events = append(s.Events, ev)
		case "t":
			f := strings.SplitN(rest, " ", 3)
			if len(f) != 3 || f[2] == "" {
				return nil, fmt.Errorf("replay: script line %d: bad tenant footer %q", line, text)
			}
			steps, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("replay: script line %d: bad tenant steps %q: %v", line, f[0], err)
			}
			hash, err := strconv.ParseUint(f[1], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("replay: script line %d: bad tenant hash %q: %v", line, f[1], err)
			}
			s.Tenants = append(s.Tenants, ScriptTenant{Name: f[2], Steps: steps, Hash: hash})
		case "end":
			f := strings.Fields(rest)
			if len(f) != 2 {
				return nil, fmt.Errorf("replay: script line %d: bad end line %q", line, text)
			}
			rounds, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("replay: script line %d: bad round count %q: %v", line, f[0], err)
			}
			fp, err := strconv.ParseUint(f[1], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("replay: script line %d: bad fingerprint %q: %v", line, f[1], err)
			}
			s.Rounds, s.Fingerprint = rounds, fp
			sawEnd = true
		default:
			return nil, fmt.Errorf("replay: script line %d: unknown op %q", line, op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: reading script: %w", err)
	}
	if !sawMeta {
		return nil, fmt.Errorf("replay: script has no meta line")
	}
	if !sawEnd {
		return nil, fmt.Errorf("replay: script is truncated (no end line)")
	}
	return s, nil
}

// scanInts parses rest as exactly len(dst) space-separated decimal
// integers into *int64 or *int fields; fmt.Sscanf would accept trailing
// tokens.
func scanInts(rest string, dst ...any) error {
	f := strings.Fields(rest)
	if len(f) != len(dst) {
		return fmt.Errorf("%d fields, want %d", len(f), len(dst))
	}
	for i, d := range dst {
		var err error
		switch d := d.(type) {
		case *int64:
			*d, err = strconv.ParseInt(f[i], 10, 64)
		case *int:
			*d, err = strconv.Atoi(f[i])
		}
		if err != nil {
			return err
		}
	}
	return nil
}
