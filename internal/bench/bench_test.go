package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/gen"
)

func quickOptions(buf *bytes.Buffer) Options {
	return Options{
		Out:        buf,
		Scale:      0.02,
		Seed:       1,
		Workers:    4,
		Quick:      true,
		MaxWindows: 24,
	}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(context.Background(), quickOptions(&buf)); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	exps := Experiments()
	for i, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			header := fmt.Sprintf("=== %s: %s ===\n", e.ID, e.Title)
			start := strings.Index(out, header)
			if start < 0 {
				t.Fatalf("header %q not printed", header)
			}
			section := out[start+len(header):]
			if i+1 < len(exps) {
				next := fmt.Sprintf("=== %s: %s ===", exps[i+1].ID, exps[i+1].Title)
				end := strings.Index(section, next)
				if end < 0 {
					t.Fatalf("experiments out of order: %q not after %q", next, header)
				}
				section = section[:end]
			}
			if strings.TrimSpace(section) == "" {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRunAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := RunAll(ctx, quickOptions(&buf)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll on a canceled context = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("RunAll on a canceled context printed %q", buf.String())
	}
}

func TestRegistryLookups(t *testing.T) {
	if len(Experiments()) < 10 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		if _, ok := Get(want); !ok {
			t.Fatalf("experiment %s missing (every paper table/figure must be covered)", want)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable("a", "bee", "c")
	tab.Rowf("x", 1.23456, 42)
	tab.Row("longer-cell", "y", "z")
	tab.Render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "bee") || !strings.Contains(lines[2], "1.23") {
		t.Fatalf("bad render:\n%s", out)
	}
	// Columns aligned: header and rows have same prefix width for col 2.
	if strings.Index(lines[0], "bee") != strings.Index(lines[3], "y") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestHeatmapRender(t *testing.T) {
	var buf bytes.Buffer
	h := NewHeatmap("delta", "sw")
	h.Set("10", "43200", 150)
	h.Set("90", "43200", 80)
	h.Set("10", "86400", 120)
	h.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "150") || !strings.Contains(out, "86400") {
		t.Fatalf("heatmap missing content:\n%s", out)
	}
	// Missing cell renders as "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("missing cell not marked:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(nil); s != "" {
		t.Fatalf("empty sparkline = %q", s)
	}
	if s := Sparkline([]int64{0, 0}); strings.TrimSpace(s) != "" {
		t.Fatalf("zero sparkline = %q", s)
	}
	s := Sparkline([]int64{0, 5, 10})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	r := []rune(s)
	if r[2] != '█' {
		t.Fatalf("max bin should render full block, got %q", s)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale <= 0 || o.Workers <= 0 || o.MaxWindows <= 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.MaxWindows >= o.MaxWindows {
		t.Fatal("quick mode should cap windows harder")
	}
}

func TestDeriveSpecPreservesOverlapRatio(t *testing.T) {
	// A long log whose natural count exceeds MaxWindows: the derived
	// spec must scale sw and delta together (same ratio) and still span
	// the dataset.
	var evs []events.Event
	for i := 0; i < 2000; i++ {
		evs = append(evs, events.Event{U: 0, V: 1, T: int64(i) * 1000})
	}
	l, err := events.NewLog(evs, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{MaxWindows: 50, Scale: 1, Workers: 1}.withDefaults()
	o.MaxWindows = 50
	slide := int64(1000)
	deltaDays := 10000.0 / float64(gen.Day) // delta = 10*slide
	spec, err := deriveSpec(l, slide, deltaDays, o)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Count > 50 {
		t.Fatalf("count %d exceeds cap", spec.Count)
	}
	ratio := float64(spec.Delta) / float64(spec.Slide)
	if ratio < 9 || ratio > 11 {
		t.Fatalf("delta/slide ratio %v, want ~10", ratio)
	}
	// Spans (nearly) the whole dataset.
	if spec.SpanEnd() < 1500*1000 {
		t.Fatalf("windows stop at %d, dataset ends at %d", spec.SpanEnd(), 1999*1000)
	}
}

func TestDeriveSpecDeltaCapAndDensestRegion(t *testing.T) {
	// delta already covers 40% of the span: scaling is capped and the
	// truncated coverage must sit on the densest region (the burst).
	var evs []events.Event
	tt := int64(0)
	for i := 0; i < 200; i++ { // sparse prefix
		tt += 1000
		evs = append(evs, events.Event{U: 0, V: 1, T: tt})
	}
	for i := 0; i < 3000; i++ { // burst in the middle
		tt += 10
		evs = append(evs, events.Event{U: 0, V: 1, T: tt})
	}
	for i := 0; i < 200; i++ { // sparse suffix
		tt += 1000
		evs = append(evs, events.Event{U: 0, V: 1, T: tt})
	}
	l, err := events.NewLog(evs, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, last, _ := l.TimeRange()
	span := last - first
	o := Options{MaxWindows: 8, Scale: 1, Workers: 1}.withDefaults()
	o.MaxWindows = 8
	deltaDays := float64(span) * 0.4 / float64(gen.Day)
	spec, err := deriveSpec(l, 100, deltaDays, o)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Count > 8 {
		t.Fatalf("count %d exceeds cap", spec.Count)
	}
	if spec.Delta > span {
		t.Fatalf("delta %d outgrew the span %d", spec.Delta, span)
	}
	// The covered range must include the burst (over half the events).
	covered := l.CountInRange(spec.T0, spec.SpanEnd())
	if covered < l.Len()/2 {
		t.Fatalf("coverage has %d of %d events; densest-region selection failed", covered, l.Len())
	}
}

func TestDeriveOverlapSpecKeepsSlide(t *testing.T) {
	var evs []events.Event
	for i := 0; i < 500; i++ {
		evs = append(evs, events.Event{U: 0, V: 1, T: int64(i) * 100})
	}
	l, _ := events.NewLog(evs, 2)
	o := Options{MaxWindows: 10, Scale: 1, Workers: 1}.withDefaults()
	o.MaxWindows = 10
	spec, err := deriveOverlapSpec(l, 100, 1000.0/float64(gen.Day), o)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Slide != 100 {
		t.Fatalf("slide changed to %d", spec.Slide)
	}
	if spec.Count != 10 {
		t.Fatalf("count = %d, want truncation to 10", spec.Count)
	}
}
