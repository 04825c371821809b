package main

import (
	"strings"
	"testing"
)

// FuzzParseTenants: sharedFlags.config never panics on a tenant, arrival
// or mode spec, and every spec it accepts rebuilds through the script meta
// line (configFromMeta(metaLine(…)), the path `serve replay` takes) with
// the same tenant names, bands, procs and arrivals, and the same mode.
// Specs with trace items are skipped, because those read files.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []struct{ tenants, arrival, mode string }{
		{"uniform,hotspot:30,global", "open:1:2", "common"},
		{"uniform:80,hotspot:80", "closed:2", "crcw"},
		{"hotspot,hotspot,hotspot,hotspot", "open:1:3", "crcw"},
		{"uniform:5,hotspot:5", "external", "crew"},
		{"uniform,hotspot", "open:1:3:2:2", "arbitrary"},
		{"uniform:5:9", "closed:1", "crcw"},
		{"global-hotspot:3,broadcast", "open:0:1", "CRCW-priority"},
		{"uniform:2", "closed:1", "erew"},
	} {
		f.Add(seed.tenants, seed.arrival, seed.mode)
	}
	f.Fuzz(func(t *testing.T, tenants, arrival, mode string) {
		for _, item := range strings.Split(tenants, ",") {
			if head, _, _ := strings.Cut(strings.TrimSpace(item), ":"); head == "trace" {
				t.Skip("trace items read files")
			}
		}
		sf := &sharedFlags{procs: 4, engines: 1, queue: 2, seed: 3, wseed: 42, mode: mode}
		live, err := sf.config(tenants, arrival)
		if err != nil {
			return
		}
		replayed, err := configFromMeta(metaLine(sf, tenants, arrival, sf.engines, ""), false)
		if err != nil {
			t.Fatalf("accepted spec %q (arrival %q, mode %q) does not rebuild from its meta line: %v", tenants, arrival, mode, err)
		}
		if replayed.Mode != live.Mode || len(replayed.Tenants) != len(live.Tenants) {
			t.Fatalf("meta rebuild: mode %v, %d tenants; want %v, %d", replayed.Mode, len(replayed.Tenants), live.Mode, len(live.Tenants))
		}
		for i, want := range live.Tenants {
			got := replayed.Tenants[i]
			if got.Name != want.Name || got.Band != want.Band || got.Procs != want.Procs || got.Arrival != want.Arrival {
				t.Errorf("tenant %d: meta rebuild %q band %d procs %d arrival %+v; want %q band %d procs %d arrival %+v",
					i, got.Name, got.Band, got.Procs, got.Arrival, want.Name, want.Band, want.Procs, want.Arrival)
			}
		}
	})
}
