package bench

import (
	"strings"
	"testing"
)

// Smoke tests for the table generators: every row the paper's tables
// carry must appear, with sane relationships where they are not
// timing-dependent.

func TestTable2bShape(t *testing.T) {
	out, err := Table2b()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"partial_appl", "total", "local", "collect", "frag",
		"pt2ptw", "mflow", "pt2pt", "mnak", "bottom",
		"total size", "MACH (generated)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2(b) lacks row %q:\n%s", want, out)
		}
	}
}

func TestCCPTable(t *testing.T) {
	out, err := CCPTable(20000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "10-layer") || !strings.Contains(out, "4-layer") {
		t.Fatalf("CCP table incomplete:\n%s", out)
	}
}

func TestTheoremListing(t *testing.T) {
	out, err := TheoremListing([]string{"top", "pt2pt", "mnak", "bottom"}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPTIMIZING STACK", "ASSUMING", "YIELDS EVENTS"} {
		if !strings.Contains(out, want) {
			t.Errorf("theorem listing lacks %q", want)
		}
	}
}

func TestCountersShape(t *testing.T) {
	orig, err := MeasureCounters(IMP, []string{"top", "pt2pt", "mnak", "bottom"}, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := MeasureCounters(MACH, []string{"top", "pt2pt", "mnak", "bottom"}, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Deliveries == 0 || mach.Deliveries == 0 {
		t.Fatalf("no deliveries: orig=%d mach=%d", orig.Deliveries, mach.Deliveries)
	}
	if mach.WireBytes >= orig.WireBytes {
		t.Errorf("compressed wire (%d) not smaller than full (%d)", mach.WireBytes, orig.WireBytes)
	}
	if mach.Mallocs >= orig.Mallocs {
		t.Errorf("optimized allocations (%d) not fewer than original (%d)", mach.Mallocs, orig.Mallocs)
	}
	hand, err := MeasureCounters(HAND, []string{"top", "pt2pt", "mnak", "bottom"}, 4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if hand.WireBytes <= 0 || hand.Deliveries <= 0 {
		t.Errorf("hand counters empty: wire=%d deliveries=%d", hand.WireBytes, hand.Deliveries)
	}
}

func TestE2ETableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-derived table")
	}
	out, err := E2ETable(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ethernet", "via", "10-layer", "4-layer"} {
		if !strings.Contains(out, want) {
			t.Errorf("e2e table lacks %q:\n%s", want, out)
		}
	}
}
