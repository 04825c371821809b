package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/serve"
)

// TestLiveEventsReplayBitForBit is the end-to-end event-log acceptance: a
// live HTTP-driven run with an autoscaler records a script, a trace and an
// event dump; rebuilding the deployment from the script meta and replaying
// with a SHADOW autoscaler (what `serve replay -events` does) reproduces
// the event dump — submits, decisions, resizes, the drain and every
// pipeline stage — byte for byte, along with the trace.
func TestLiveEventsReplayBitForBit(t *testing.T) {
	const tenantSpec, arrivalSpec, autoscaleSpec = "uniform,hotspot", "external", "1:2:4"
	sf := &sharedFlags{procs: 8, engines: 1, queue: 4, seed: 3, wseed: 42, mode: "crcw"}
	cfg, err := sf.config(tenantSpec, arrivalSpec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var trace, script bytes.Buffer
	if err := s.StartTrace(&trace); err != nil {
		t.Fatal(err)
	}
	rec, err := replay.NewScriptRecorder(&script, metaLine(sf, tenantSpec, arrivalSpec, s.Engines(), autoscaleSpec))
	if err != nil {
		t.Fatal(err)
	}
	acfg, err := parseAutoscale(autoscaleSpec)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.NewHTTPServer(s, serve.HTTPOptions{
		Script:     rec,
		Autoscaler: serve.NewAutoscaler(s, acfg),
	})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	// Saturating submissions force rejections → the autoscaler grows →
	// then silence shrinks it back: the event dump gets submits, decisions
	// and resizes in both directions next to the rounds' stages.
	for r := 0; r < 40; r++ {
		if r < 20 {
			tn := "t0-uniform"
			if r%3 == 0 {
				tn = "t1-hotspot"
			}
			resp, err := http.Post(fmt.Sprintf("%s/submit?tenant=%s&steps=3", ts.URL, tn), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		h.Tick()
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	var liveEvents bytes.Buffer
	if err := s.WriteEvents(&liveEvents, 0); err != nil {
		t.Fatal(err)
	}
	if s.Events().Dropped() != 0 {
		t.Fatal("event ring wrapped — the dump no longer holds the whole run")
	}
	for _, frag := range []string{
		`"name":"submit","ph":"i"`, `"name":"decision","ph":"i"`,
		`"from":1,"to":2}`, `"from":2,"to":1}`, `"name":"drain","ph":"i"`,
		`"name":"wait","ph":"X"`, `"name":"schedule","ph":"X"`, `"name":"partition","ph":"X"`,
		`"name":"quorum","ph":"X"`, `"name":"commit","ph":"X"`, `"name":"route","ph":"X"`,
		`"name":"merge","ph":"X"`,
	} {
		if !strings.Contains(liveEvents.String(), frag) {
			t.Errorf("live event dump missing %q — the scenario no longer exercises it", frag)
		}
	}

	// Replay exactly as cmdReplay does: deployment from meta, shadow
	// autoscaler from the recorded policy.
	sc, err := replay.ReadScript(bytes.NewReader(script.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := configFromMeta(sc.Meta, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serve.NewServer(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	var repTrace bytes.Buffer
	if err := rep.StartTrace(&repTrace); err != nil {
		t.Fatal(err)
	}
	spec, err := metaValue(sc.Meta, "autoscale")
	if err != nil {
		t.Fatal(err)
	}
	if spec != autoscaleSpec {
		t.Fatalf("autoscale meta %q, want %q", spec, autoscaleSpec)
	}
	racfg, err := parseAutoscale(spec)
	if err != nil {
		t.Fatal(err)
	}
	shadow := serve.NewAutoscaler(rep, racfg)
	rep.PlayScript(sc.Events, sc.Rounds, func() { shadow.Observe() })
	if err := rep.StopTrace(); err != nil {
		t.Fatal(err)
	}

	var repEvents bytes.Buffer
	if err := rep.WriteEvents(&repEvents, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveEvents.Bytes(), repEvents.Bytes()) {
		t.Errorf("event dump diverged:\nlive:\n%s\nreplay:\n%s", liveEvents.String(), repEvents.String())
	}
	if !bytes.Equal(trace.Bytes(), repTrace.Bytes()) {
		t.Errorf("re-recorded trace differs from live capture (%d vs %d bytes)", trace.Len(), repTrace.Len())
	}
	if fp := rep.Fingerprint(); fp != sc.Fingerprint {
		t.Errorf("replay fingerprint %016x != recorded %016x", fp, sc.Fingerprint)
	}
}

// TestHTTPServerTimeouts: the live server bounds both a client that never
// finishes its request headers and an idle keep-alive connection, so
// neither holds a connection and its goroutine forever.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
}
