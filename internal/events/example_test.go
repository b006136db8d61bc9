package events_test

import (
	"fmt"
	"log"

	"pmpr/internal/events"
)

// ExampleWindowSpec shows the sliding-window arithmetic: the windows a
// timestamp belongs to, per the closed form the temporal CSR build uses.
func ExampleWindowSpec() {
	w := events.WindowSpec{T0: 0, Delta: 10, Slide: 4, Count: 5}
	for _, t := range []int64{0, 7, 13} {
		lo, hi, ok := w.Covering(t)
		fmt.Printf("t=%d in windows [%d, %d] (ok=%v)\n", t, lo, hi, ok)
	}
	// Output:
	// t=0 in windows [0, 0] (ok=true)
	// t=7 in windows [0, 1] (ok=true)
	// t=13 in windows [1, 3] (ok=true)
}

// ExampleSpan derives a window sequence covering a dataset.
func ExampleSpan() {
	l, err := events.NewLog([]events.Event{
		{U: 0, V: 1, T: 100},
		{U: 1, V: 2, T: 160},
		{U: 2, V: 0, T: 219},
	}, 3)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := events.Span(l, 50, 25) // delta=50, sw=25
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d windows starting at t=%d\n", spec.Count, spec.T0)
	fmt.Printf("window 2 covers [%d, %d] with %d events\n",
		spec.Start(2), spec.End(2), len(l.Slice(spec.Start(2), spec.End(2))))
	// Output:
	// 5 windows starting at t=100
	// window 2 covers [150, 200] with 1 events
}
