package experiment

import (
	"strings"
	"testing"
)

func TestQuickBaseDefaults(t *testing.T) {
	cfg, err := QuickBase(1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Net == nil || cfg.N != 1000 || !cfg.RunDP || cfg.Agility != 0.5 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Eps != 10 || cfg.W != 100 {
		t.Error("paper defaults not applied")
	}
}

func TestSweepNShapes(t *testing.T) {
	base, err := QuickBase(2)
	if err != nil {
		t.Fatal(err)
	}
	base.Duration = 100
	rows, err := SweepN(base, []int{200, 800})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More objects → more stored paths and more messages, for both methods.
	if rows[1].SPIndexSize <= rows[0].SPIndexSize {
		t.Errorf("SP index must grow with N: %v -> %v", rows[0].SPIndexSize, rows[1].SPIndexSize)
	}
	if rows[1].DPIndexSize <= rows[0].DPIndexSize {
		t.Errorf("DP index must grow with N: %v -> %v", rows[0].DPIndexSize, rows[1].DPIndexSize)
	}
	if rows[1].UpMessages <= rows[0].UpMessages {
		t.Error("messages must grow with N")
	}
	if rows[1].Measurements <= rows[0].Measurements {
		t.Error("measurements must grow with N")
	}
}

func TestSweepEpsShapes(t *testing.T) {
	// The paper grid on three seeds: every step up in ε must store fewer
	// paths and send fewer messages (Fig 8a), so compression rises.
	// Accuracy (SP/DP top-k score) is not asserted because it is not
	// monotone in ε: on seeds 21–26 it peaks at ε = 5 every time.
	for seed := int64(21); seed <= 23; seed++ {
		base, err := QuickBase(seed)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := SweepEps(base, paperEps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1], rows[i]
			if b.SPIndexSize >= a.SPIndexSize {
				t.Errorf("seed %d: SP index must shrink from eps=%g to %g: %v -> %v",
					seed, a.Param, b.Param, a.SPIndexSize, b.SPIndexSize)
			}
			if b.UpMessages >= a.UpMessages {
				t.Errorf("seed %d: messages must shrink from eps=%g to %g: %d -> %d",
					seed, a.Param, b.Param, a.UpMessages, b.UpMessages)
			}
			ca := float64(a.Measurements) / float64(a.UpMessages)
			cb := float64(b.Measurements) / float64(b.UpMessages)
			if cb <= ca {
				t.Errorf("seed %d: compression must rise from eps=%g to %g: %.2f -> %.2f",
					seed, a.Param, b.Param, ca, cb)
			}
		}
	}
}

func TestWriteRows(t *testing.T) {
	rows := []Row{{Param: 10, SPIndexSize: 100, DPIndexSize: 90, SPScore: 5, DPScore: 6}}
	var b strings.Builder
	if err := WriteRows(&b, "N", rows); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"N", "sp-index", "dp-index", "100", "90"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigures9And10(t *testing.T) {
	base, err := QuickBase(4)
	if err != nil {
		t.Fatal(err)
	}
	base.Duration = 80
	paths, network, err := Figure9(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(paths, "<svg ") || !strings.HasPrefix(network, "<svg ") {
		t.Error("figure 9 outputs must be SVG")
	}
	if strings.Count(paths, "<line ") == 0 {
		t.Error("figure 9 has no discovered paths")
	}
	fig10, err := Figure10(base, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fig10, "<svg ") {
		t.Error("figure 10 must be SVG")
	}
}

func TestTable2(t *testing.T) {
	base, err := QuickBase(5)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Table2(&b, base); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"objects (N)", "tolerance", "window size", "1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestCommAblation(t *testing.T) {
	base, err := QuickBase(6)
	if err != nil {
		t.Fatal(err)
	}
	base.Duration = 80
	rows, err := CommAblation(base, []float64{2, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	for _, r := range rows {
		// Message-count suppression must hold at every tolerance; the BYTE
		// ratio can dip below 1 at tiny eps because a state message (64 B)
		// outweighs a raw measurement (24 B).
		if r.UpMessages >= r.Measurements {
			t.Errorf("eps=%v: filtering must reduce messages", r.Eps)
		}
	}
	if rows[1].Ratio <= rows[0].Ratio {
		t.Error("larger eps must compress more")
	}
	if rows[1].Ratio <= 1 {
		t.Errorf("eps=20 byte compression = %v, should exceed 1", rows[1].Ratio)
	}
	var b strings.Builder
	if err := WriteCommRows(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "compression") {
		t.Error("comm table header missing")
	}
}
