package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The response structs below are the reference schema of the cached
// /v1 documents: encoding/json's rendering of them, plus a newline, is
// the byte format the append encoders must reproduce.

// topkResponse is the /v1/topk JSON document.
type topkResponse struct {
	Window int      `json:"window"`
	Start  int64    `json:"start"`
	End    int64    `json:"end"`
	K      int      `json:"k"`
	Ranks  []Ranked `json:"ranks"`
}

// trajectoryResponse is the /v1/vertex/{id}/trajectory JSON document.
type trajectoryResponse struct {
	Vertex  int32     `json:"vertex"`
	Windows int       `json:"windows"`
	T0      int64     `json:"t0"`
	Delta   int64     `json:"delta"`
	Slide   int64     `json:"slide"`
	Ranks   []float64 `json:"ranks"`
}

// moversResponse is the /v1/movers JSON document.
type moversResponse struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	K      int     `json:"k"`
	Movers []Mover `json:"movers"`
}

func TestResponsesMatchEncodingJSON(t *testing.T) {
	st := newRefStore(t)
	svc := NewService(0)
	svc.Publish(st)
	mux := http.NewServeMux()
	svc.Mount(mux)
	check := func(path string, doc any) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		want, err := marshalBody(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want) {
			t.Fatalf("GET %s:\n got %s\nwant %s", path, got, want)
		}
	}
	spec := st.Spec()
	var tiny, huge int
	for w := 0; w < st.NumWindows(); w++ {
		for _, k := range []int{0, 1, 7, DefaultMaxK} {
			ranks, err := st.TopK(w, k)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("/v1/topk?window=%d&k=%d", w, k), topkResponse{
				Window: w, Start: spec.Start(w), End: spec.End(w), K: k, Ranks: ranks,
			})
		}
		for _, r := range st.windows[w].ranks {
			switch {
			case r < 1e-6:
				tiny++
			case r >= 1e21:
				huge++
			}
		}
	}
	if tiny == 0 || huge == 0 {
		t.Fatalf("the series holds %d ranks below 1e-6 and %d at or above 1e21; want both", tiny, huge)
	}
	for v := int32(0); v < st.NumVertices(); v++ {
		ranks, err := st.Trajectory(v)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("/v1/vertex/%d/trajectory", v), trajectoryResponse{
			Vertex: v, Windows: spec.Count, T0: spec.T0, Delta: spec.Delta, Slide: spec.Slide, Ranks: ranks,
		})
	}
	for from := 0; from < st.NumWindows(); from++ {
		for to := 0; to < st.NumWindows(); to++ {
			for _, k := range []int{0, 20, DefaultMaxK} {
				movers, err := st.Movers(from, to, k)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("/v1/movers?from=%d&to=%d&k=%d", from, to, k), moversResponse{
					From: from, To: to, K: k, Movers: movers,
				})
			}
		}
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 3e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), 1e20, 1e100, -2e-300, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 123456789.125,
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip("encoding/json rejects non-finite floats")
		}
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, x); string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, want %s", x, got, want)
		}
	})
}
