package replay

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sampleTenants is sampleScript's footer.
var sampleTenants = []ScriptTenant{
	{Name: "uniform", Steps: 5, Hash: 0xdeadbeefcafe},
	{Name: "a name with spaces", Steps: 2, Hash: 0x1},
}

// sampleScript records a representative script: submissions, resizes, a
// drain and a footer.
func sampleScript(tb testing.TB) []byte {
	var buf bytes.Buffer
	rec, err := NewScriptRecorder(&buf, `tenants="uniform:20,hotspot:10" n=64 engines=2`)
	if err != nil {
		tb.Fatal(err)
	}
	rec.Submit(0, 0, 4)
	rec.Submit(0, 1, 2)
	rec.Resize(3, 4)
	rec.Submit(3, 0, 1)
	rec.Resize(9, 2)
	rec.Drain(11)
	if err := rec.Close(sampleTenants, 12, 0xfeedface); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestScriptRoundTrip records a representative script and parses it back.
func TestScriptRoundTrip(t *testing.T) {
	s, err := ReadScript(bytes.NewReader(sampleScript(t)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta != `tenants="uniform:20,hotspot:10" n=64 engines=2` {
		t.Errorf("meta = %q", s.Meta)
	}
	want := []ScriptEvent{
		{Round: 0, Tenant: 0, Credits: 4},
		{Round: 0, Tenant: 1, Credits: 2},
		{Round: 3, K: 4},
		{Round: 3, Tenant: 0, Credits: 1},
		{Round: 9, K: 2},
		{Round: 11},
	}
	if len(s.Events) != len(want) {
		t.Fatalf("got %d events, want %d", len(s.Events), len(want))
	}
	for i := range want {
		if s.Events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, s.Events[i], want[i])
		}
	}
	if !s.Events[2].IsResize() || s.Events[2].IsDrain() {
		t.Error("event 2 should classify as a resize")
	}
	if !s.Events[5].IsDrain() || s.Events[5].IsResize() {
		t.Error("event 5 should classify as a drain")
	}
	if !slices.Equal(s.Tenants, sampleTenants) {
		t.Errorf("tenants = %+v, want %+v", s.Tenants, sampleTenants)
	}
	if s.Rounds != 12 || s.Fingerprint != 0xfeedface {
		t.Errorf("footer = (%d, %x), want (12, feedface)", s.Rounds, s.Fingerprint)
	}
}

// TestScriptRejectsMalformed sweeps the loud-failure grammar: every
// corruption a serving incident could plausibly produce is named, not
// silently skipped.
func TestScriptRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{"empty", "", "empty script"},
		{"bad magic", "PRAMTRC1\nmeta x\nend 0 0\n", "not an arrival script"},
		{"no meta", "PRAMARS1\nend 0 0\n", "no meta line"},
		{"no end", "PRAMARS1\nmeta x\na 0 0 1\n", "truncated"},
		{"dup meta", "PRAMARS1\nmeta x\nmeta y\nend 0 0\n", "duplicate meta"},
		{"bad op", "PRAMARS1\nmeta x\nq 1 2\nend 0 0\n", "unknown op"},
		{"bad submit", "PRAMARS1\nmeta x\na 0 zero 1\nend 0 0\n", "bad submission"},
		{"submit trailing token", "PRAMARS1\nmeta x\na 1 2 3 junk\nend 0 0\n", "bad submission"},
		{"resize trailing token", "PRAMARS1\nmeta x\nr 1 2 3\nend 0 0\n", "bad resize"},
		{"drain missing round", "PRAMARS1\nmeta x\nd\nend 0 0\n", "bad drain"},
		{"meta CR", "PRAMARS1\nmeta x\ry\nend 0 0\n", "carriage return"},
		{"name ends in CR", "PRAMARS1\nmeta x\nt 1 0 u\r\r\nend 0 0\n", "carriage return"},
		{"zero credits", "PRAMARS1\nmeta x\na 0 0 0\nend 0 0\n", "bad submission"},
		{"credits above MaxCredits", "PRAMARS1\nmeta x\na 0 0 2147483648\nend 0 0\n", "bad submission"},
		{"zero k", "PRAMARS1\nmeta x\nr 4 0\nend 0 0\n", "bad resize"},
		{"bad tenant", "PRAMARS1\nmeta x\nt 5 nothex u\nend 0 0\n", "bad tenant hash"},
		{"tenant no name", "PRAMARS1\nmeta x\nt 5 0\nend 0 0\n", "bad tenant footer"},
		{"bad end", "PRAMARS1\nmeta x\nend 0\n", "bad end line"},
		{"after end", "PRAMARS1\nmeta x\nend 0 0\na 0 0 1\n", "content after end"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadScript(strings.NewReader(c.text))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, c.wantErr)
			}
		})
	}
	if _, err := NewScriptRecorder(&bytes.Buffer{}, "two\nlines"); err == nil {
		t.Error("multiline meta accepted")
	}
}

// FuzzReadScript: ReadScript either rejects its input, or the script it
// returns re-records through ScriptRecorder and reads back identical.
func FuzzReadScript(f *testing.F) {
	sample := sampleScript(f)
	f.Add(string(sample))
	f.Add(string(sample[:len(sample)-8])) // truncated inside the end line
	f.Add("PRAMARS1\nmeta x\ry\nend 0 0\n")
	f.Add("PRAMARS1\nmeta x\na 1 2 3 junk\nend 0 0\n")
	f.Add("PRAMARS1\nmeta x\nt 1 0 u\r\r\nend 0 0\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ReadScript(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		rec, err := NewScriptRecorder(&buf, s.Meta)
		if err != nil {
			t.Fatalf("parsed meta %q does not record: %v", s.Meta, err)
		}
		for _, ev := range s.Events {
			switch {
			case ev.IsResize():
				rec.Resize(ev.Round, ev.K)
			case ev.IsDrain():
				rec.Drain(ev.Round)
			default:
				rec.Submit(ev.Round, ev.Tenant, ev.Credits)
			}
		}
		if err := rec.Close(s.Tenants, s.Rounds, s.Fingerprint); err != nil {
			t.Fatal(err)
		}
		back, err := ReadScript(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-recorded script does not parse: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("re-recorded script reads back %+v, parsed %+v", back, s)
		}
	})
}
