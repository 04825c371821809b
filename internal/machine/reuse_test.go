package machine

import (
	"strings"
	"testing"

	"repro/internal/ideal"
	"repro/internal/model"
)

// TestMachineReusePanics: a Machine is single-use; a second Run must fail
// fast with a clear message telling the caller to build a new Machine.
func TestMachineReusePanics(t *testing.T) {
	m := New(ideal.New(4, 16, model.CRCWPriority))
	rep := m.Run(func(p *Proc) {
		p.Write(p.ID(), model.Word(p.ID()))
	})
	if rep.Err() != nil {
		t.Fatalf("first run failed: %v", rep.Err())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Run did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "consumed machine") {
			t.Fatalf("unhelpful panic message: %v", r)
		}
	}()
	m.Run(func(p *Proc) { p.Sync() })
}
