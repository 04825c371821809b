package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestLiveEventsReplayBitForBit is the end-to-end live acceptance: an
// HTTP-driven run whose server runs its own autoscaler records a script, a
// trace and an event dump, and `serve replay` of the three files passes.
// The replayed server, rebuilt from the meta line with the same
// autoscaler, re-records the script byte for byte, and its trace and event
// dump (submits, decisions, resizes, the drain and every pipeline stage)
// match the live captures.
func TestLiveEventsReplayBitForBit(t *testing.T) {
	const tenantSpec, arrivalSpec, autoscaleSpec = "uniform,hotspot", "external", "1:2:4"
	sf := &sharedFlags{procs: 8, engines: 1, queue: 4, seed: 3, wseed: 42, mode: "crcw"}
	cfg, err := sf.config(tenantSpec, arrivalSpec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Autoscale, err = parseAutoscale(autoscaleSpec); err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dir := t.TempDir()
	create := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	if err := s.StartTrace(create("run.trc")); err != nil {
		t.Fatal(err)
	}
	if err := s.StartScript(create("run.ars"), metaLine(sf, tenantSpec, arrivalSpec, s.Engines(), autoscaleSpec)); err != nil {
		t.Fatal(err)
	}
	h := serve.NewHTTPServer(s, serve.HTTPOptions{})
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
	events := filepath.Join(dir, "run.events.json")
	if err := writeEvents(s, events); err != nil {
		t.Fatal(err)
	}
	if s.Events().Dropped() != 0 {
		t.Fatal("event ring wrapped — the dump no longer holds the whole run")
	}
	live, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`"name":"submit","ph":"i"`, `"name":"decision","ph":"i"`,
		`"from":1,"to":2}`, `"from":2,"to":1}`, `"name":"drain","ph":"i"`,
		`"name":"wait","ph":"X"`, `"name":"schedule","ph":"X"`, `"name":"partition","ph":"X"`,
		`"name":"quorum","ph":"X"`, `"name":"commit","ph":"X"`, `"name":"route","ph":"X"`,
		`"name":"merge","ph":"X"`,
	} {
		if !strings.Contains(string(live), frag) {
			t.Errorf("live event dump missing %q — the scenario no longer exercises it", frag)
		}
	}
	if err := cmdReplay([]string{"-script", filepath.Join(dir, "run.ars"),
		"-trace", filepath.Join(dir, "run.trc"), "-events", events}); err != nil {
		t.Fatal(err)
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
