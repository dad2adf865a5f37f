package obs

import (
	"strings"
	"testing"
)

func TestEventFormatting(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, Info)
	l.Event(Info, "serve.listening", "addr", "127.0.0.1:8411", "epochs", 3)
	l.Event(Warn, "probe.weird", "msg", "has spaces", "eq", "k=v", "empty", "")
	l.Event(Debug, "suppressed")
	l.Event(Error, "odd", "only-key")
	got := b.String()
	want := []string{
		"level=info event=serve.listening addr=127.0.0.1:8411 epochs=3\n",
		`level=warn event=probe.weird msg="has spaces" eq="k=v" empty=""` + "\n",
		`level=error event=odd !odd_kv=only-key` + "\n",
	}
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("missing %q in:\n%s", w, got)
		}
	}
	if strings.Contains(got, "suppressed") {
		t.Errorf("debug event should be suppressed at Info:\n%s", got)
	}
}

func TestEventCountsEvenWhenSuppressed(t *testing.T) {
	s := NewSet()
	s.Log.Event(Debug, "quiet")
	s.Log.Event(Info, "loud")
	if got := eventsTotal.In(s.Reg, "debug").Value(); got != 1 {
		t.Fatalf("debug count = %d, want 1", got)
	}
	if got := eventsTotal.In(s.Reg, "info").Value(); got != 1 {
		t.Fatalf("info count = %d, want 1", got)
	}
}
