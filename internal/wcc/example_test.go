package wcc_test

import (
	"fmt"
	"log"

	"pmpr/internal/events"
	"pmpr/internal/tcsr"
	"pmpr/internal/wcc"
)

// Example tracks how two communities merge over time: early windows
// have two components, later windows one.
func Example() {
	evs := []events.Event{
		{U: 0, V: 1, T: 0}, {U: 2, V: 3, T: 1}, // two separate pairs
		{U: 0, V: 1, T: 48}, {U: 2, V: 3, T: 49}, // both still active later...
		{U: 1, V: 2, T: 50}, // ...when the bridge appears
	}
	raw, err := events.NewLog(evs, 4)
	if err != nil {
		log.Fatal(err)
	}
	l := raw.Symmetrize()
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 45, Count: 2}

	tg, err := tcsr.Build(l, spec, 1, false)
	if err != nil {
		log.Fatal(err)
	}
	for w := 0; w < spec.Count; w++ {
		r := wcc.Window(tg, w)
		fmt.Printf("window %d: %d components, 0 and 3 connected: %v\n",
			w, r.Components, r.SameComponent(0, 3))
	}
	// Output:
	// window 0: 2 components, 0 and 3 connected: false
	// window 1: 1 components, 0 and 3 connected: true
}
