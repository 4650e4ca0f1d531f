package ensemble_test

import (
	"fmt"
	"testing"

	"ensemble"
)

// Public-API tests: what a downstream user of the library sees.

func TestPublicQuickstart(t *testing.T) {
	stack, err := ensemble.SelectStack(ensemble.ReliableMcast, ensemble.SelfDelivery)
	if err != nil {
		t.Fatal(err)
	}
	var delivered []string
	g, err := ensemble.NewGroup(3, ensemble.LossyNet(0.2), 5, stack, ensemble.Imp,
		func(rank int) ensemble.Handlers {
			return ensemble.Handlers{
				OnCast: func(origin int, payload []byte) {
					delivered = append(delivered, fmt.Sprintf("%d<-%d:%s", rank, origin, payload))
				},
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	g.Do(0, 0, func() { g.Members[0].Cast([]byte("hi")) })
	g.Run(int64(5e9))
	if len(delivered) != 3 {
		t.Fatalf("delivered = %v, want 3 deliveries", delivered)
	}
}

func TestPublicComponentsList(t *testing.T) {
	comps := ensemble.Components()
	if len(comps) < 13 {
		t.Fatalf("component library has %d entries", len(comps))
	}
}

func TestPublicStacks(t *testing.T) {
	if len(ensemble.Stack10()) != 10 || len(ensemble.Stack4()) != 4 {
		t.Fatal("predefined stacks wrong size")
	}
}

func TestPublicOptimizedEngine(t *testing.T) {
	addrs := []ensemble.Addr{1, 2}
	engines := make([]*ensemble.Engine, 2)
	got := 0
	for m := 0; m < 2; m++ {
		view := ensemble.NewView("t", 1, addrs, m)
		eng, err := ensemble.NewOptimizedEngine(ensemble.Stack10(), ensemble.DefaultLayerConfig(view), ensemble.Func)
		if err != nil {
			t.Fatal(err)
		}
		eng.Deliver = func(origin int, payload []byte, cast bool) { got++ }
		engines[m] = eng
	}
	for m := 0; m < 2; m++ {
		m := m
		engines[m].SendWire = func(cast bool, dst int, wire []byte) { engines[1-m].Packet(wire) }
	}
	for i := 0; i < 100; i++ {
		engines[0].Cast([]byte("x"))
	}
	if got != 200 { // receiver + sender self-delivery
		t.Fatalf("deliveries = %d, want 200", got)
	}
	if engines[0].Stats().DnBypass == 0 {
		t.Fatal("bypass never used")
	}
	if len(engines[0].Theorems()) == 0 {
		t.Fatal("no theorems exposed")
	}
}

func TestPublicSelectStackErrors(t *testing.T) {
	if _, err := ensemble.SelectStack(ensemble.Property("bogus")); err == nil {
		t.Fatal("bogus property accepted")
	}
}
