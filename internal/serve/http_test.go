package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/replay"
)

// postSubmit drives POST /submit and returns the status code and body.
func postSubmit(t *testing.T, base, tenant string, steps int) (int, string) {
	t.Helper()
	url := fmt.Sprintf("%s/submit?tenant=%s&steps=%d", base, tenant, steps)
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHTTPSubmitBackpressure is the HTTP half of the loud-backpressure
// contract: a submission the bounded queue cannot fully admit answers 429
// AND bumps the tenant's Rejected counter — never a silent drop.
func TestHTTPSubmitBackpressure(t *testing.T) {
	s, err := NewServer(externalPair()) // QueueCap 4 per tenant
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHTTPServer(s, HTTPOptions{})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	code, body := postSubmit(t, ts.URL, "ext0", 2)
	if code != http.StatusOK || !strings.Contains(body, `"accepted":2,"rejected":0`) {
		t.Errorf("in-cap submit: code %d body %q", code, body)
	}
	// 2 queued + 10 offered against cap 4 → 2 accepted, 8 rejected.
	code, body = postSubmit(t, ts.URL, "ext0", 10)
	if code != http.StatusTooManyRequests {
		t.Errorf("overflow submit: code %d, want 429", code)
	}
	if !strings.Contains(body, `"accepted":2,"rejected":8`) {
		t.Errorf("overflow body %q, want accepted 2 rejected 8", body)
	}
	if st := s.TenantStats(0); st.Rejected != 8 || st.Submitted != 12 {
		t.Errorf("rejected=%d submitted=%d, want 8/12 (429 must bump Rejected)", st.Rejected, st.Submitted)
	}
	checkIdentity(t, s, "after 429")

	if code, _ = postSubmit(t, ts.URL, "nobody", 1); code != http.StatusNotFound {
		t.Errorf("unknown tenant code %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/submit?tenant=ext0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /submit code %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/submit?tenant=ext0&steps=zero", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad steps code %d, want 400", resp.StatusCode)
	}
}

// TestHTTPMetricsAndHealth covers the scrape endpoint and the drain flip.
func TestHTTPMetricsAndHealth(t *testing.T) {
	s, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := NewAutoscaler(s, AutoscaleConfig{Interval: 8})
	h := NewHTTPServer(s, HTTPOptions{Autoscaler: a})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
	postSubmit(t, ts.URL, "ext0", 2)
	h.Tick()
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics code %d", code)
	}
	for _, want := range []string{
		"pramsim_serve_engines 1",
		"pramsim_serve_http_submits_total 1",
		"pramsim_serve_autoscale_k_max 2",
		`pramsim_serve_tenant_submitted_total{tenant="ext0",band="0",shard="0"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := h.Shutdown(); err != nil { // idempotent
		t.Fatal(err)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz code %d, want 503", code)
	}
	code, _ = postSubmit(t, ts.URL, "ext0", 1)
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining submit code %d, want 503", code)
	}
	// A denied submission never reached the server's accounting.
	if st := s.TenantStats(0); st.Submitted != 2 {
		t.Errorf("denied submit leaked into accounting: submitted=%d, want 2", st.Submitted)
	}
	checkIdentity(t, s, "after shutdown")
}

// TestHTTPEventsEndpoint: /debug/events serves the event log's Perfetto
// trace — byte-identical to WriteEvents, admissions as instants next to the
// round's stage spans — rejects non-GET methods and honors a bounded
// ?limit=N.
func TestHTTPEventsEndpoint(t *testing.T) {
	s, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHTTPServer(s, HTTPOptions{})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	postSubmit(t, ts.URL, "ext0", 3)
	postSubmit(t, ts.URL, "ext1", 2)
	for i := 0; i < 4; i++ {
		h.Tick()
	}
	resp, err := http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/events code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/events content-type %q", ct)
	}
	var want bytes.Buffer
	if err := s.WriteEvents(&want, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("/debug/events differs from WriteEvents:\nhttp:  %s\ndirect: %s", body, want.Bytes())
	}
	for _, frag := range []string{
		`{"name":"submit","ph":"i","pid":1,"tid":0,"ts":0,"args":{"round":0,"tenant":"ext0","accepted":3,"rejected":0}}`,
		`"name":"quorum","ph":"X"`, `"name":"merge","ph":"X"`, `"clock":`,
	} {
		if !strings.Contains(string(body), frag) {
			t.Errorf("event dump missing %q in %s", frag, body)
		}
	}

	resp, err = http.Post(ts.URL+"/debug/events", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/events code %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Errorf("POST /debug/events Allow %q, want GET", allow)
	}
	for _, bad := range []string{"0", "-3", "x"} {
		resp, err = http.Get(ts.URL + "/debug/events?limit=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/events?limit=%s code %d, want 400", bad, resp.StatusCode)
		}
	}

	// A positive limit truncates oldest-first and says so: the dump's
	// dropped counter absorbs the truncation, total stays the full count.
	resp, err = http.Get(ts.URL + "/debug/events?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	total, kept := s.Events().Total(), int64(2)
	wantHeader := fmt.Sprintf(`"total":%d,"dropped":%d`, total, total-kept)
	if !strings.Contains(string(body), wantHeader) {
		t.Errorf("limited event dump missing %q in %s", wantHeader, body)
	}
	if got := int64(strings.Count(string(body), `"ph":"X"`) + strings.Count(string(body), `"ph":"i"`)); got != kept {
		t.Errorf("limited event dump carries %d events, want %d", got, kept)
	}
}

// TestHostileTenantNamesStayJSON: tenant names are caller-chosen, so the
// event dump (full and limit-ed) and the /submit body must encode them as
// JSON strings — control bytes, DEL and invalid UTF-8 included — and a
// valid-UTF-8 name must decode back to itself.
func TestHostileTenantNamesStayJSON(t *testing.T) {
	for _, name := range []string{"ctl\x01name", "del\x7fname", "bad\xffutf8", "tab\tname"} {
		cfg := externalPair()
		cfg.Tenants[1].Name = name
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHTTPServer(s, HTTPOptions{})
		ts := httptest.NewServer(h.Handler())
		code, body := postSubmit(t, ts.URL, url.QueryEscape(name), 6) // cap 4: a 429 echoing the name
		if code != http.StatusTooManyRequests {
			t.Errorf("%q: submit code %d, want 429", name, code)
		}
		var sub struct {
			Tenant string `json:"tenant"`
		}
		if err := json.Unmarshal([]byte(body), &sub); err != nil {
			t.Errorf("%q: /submit body is not JSON (%v): %s", name, err, body)
		} else if utf8.ValidString(name) && sub.Tenant != name {
			t.Errorf("%q: /submit body decodes the tenant as %q", name, sub.Tenant)
		}
		h.Tick()
		h.Tick()
		for _, limit := range []int{0, 3} {
			var buf bytes.Buffer
			if err := s.WriteEvents(&buf, limit); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) {
				t.Errorf("%q: event dump (limit %d) is not valid JSON:\n%s", name, limit, buf.String())
				continue
			}
			if limit != 0 || !utf8.ValidString(name) {
				continue
			}
			var doc struct {
				TraceEvents []struct {
					Name string
					Pid  int
					Tid  int
					Args struct{ Name, Tenant string }
				}
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			var thread, submit bool
			for _, ev := range doc.TraceEvents {
				thread = thread || ev.Name == "thread_name" && ev.Pid == pidTenants && ev.Tid == 1 && ev.Args.Name == name
				submit = submit || ev.Name == "submit" && ev.Args.Tenant == name
			}
			if !thread || !submit {
				t.Errorf("%q: name did not decode back (thread track %v, submit args %v)", name, thread, submit)
			}
		}
		ts.Close()
		s.Close()
	}
}

// TestHTTPPprofGate: the stdlib profile handlers exist on the mux only when
// HTTPOptions.Pprof opts in.
func TestHTTPPprofGate(t *testing.T) {
	s, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		pprof bool
		want  int
	}{{false, http.StatusNotFound}, {true, http.StatusOK}} {
		h := NewHTTPServer(s, HTTPOptions{Pprof: tc.pprof})
		ts := httptest.NewServer(h.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("pprof=%v: /debug/pprof/cmdline code %d, want %d", tc.pprof, resp.StatusCode, tc.want)
		}
		ts.Close()
	}
}

// TestHTTPRecordedRunReplays is the end-to-end live-mode acceptance at the
// HTTP layer: a run driven through the handlers — including a 429'd
// overflow and a denied post-drain submission — records a script + trace
// that replay bit-for-bit.
func TestHTTPRecordedRunReplays(t *testing.T) {
	s, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var trace, script bytes.Buffer
	if err := s.StartTrace(&trace); err != nil {
		t.Fatal(err)
	}
	rec, err := replay.NewScriptRecorder(&script, "http test mix")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHTTPServer(s, HTTPOptions{Script: rec})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	for r := 0; r < 12; r++ {
		if r%2 == 0 {
			postSubmit(t, ts.URL, "ext0", 2)
		}
		if r%5 == 0 {
			postSubmit(t, ts.URL, "ext1", 6) // overflows cap 4 → 429 recorded as a submission
		}
		h.Tick()
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	postSubmit(t, ts.URL, "ext0", 3) // denied: must NOT be in the script
	live := make([]TenantStats, s.NumTenants())
	for i := range live {
		live[i] = s.TenantStats(i)
	}

	sc, err := replay.ReadScript(bytes.NewReader(script.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewServer(externalPair())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	var repTrace bytes.Buffer
	if err := rep.StartTrace(&repTrace); err != nil {
		t.Fatal(err)
	}
	rep.PlayScript(sc.Events, sc.Rounds)
	if err := rep.StopTrace(); err != nil {
		t.Fatal(err)
	}
	for i, want := range live {
		st := rep.TenantStats(i)
		if st.Steps != want.Steps || st.Hash != want.Hash ||
			st.Submitted != want.Submitted || st.Rejected != want.Rejected {
			t.Errorf("tenant %d: replay {steps=%d hash=%x sub=%d rej=%d}, live {steps=%d hash=%x sub=%d rej=%d}",
				i, st.Steps, st.Hash, st.Submitted, st.Rejected,
				want.Steps, want.Hash, want.Submitted, want.Rejected)
		}
	}
	if rep.Fingerprint() != sc.Fingerprint {
		t.Errorf("replay fingerprint %x, script %x", rep.Fingerprint(), sc.Fingerprint)
	}
	if !bytes.Equal(trace.Bytes(), repTrace.Bytes()) {
		t.Errorf("re-recorded trace differs from live capture (%d vs %d bytes)", trace.Len(), repTrace.Len())
	}
	checkIdentity(t, rep, "http replay")
}
