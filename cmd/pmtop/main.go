// Command pmtop watches a live pmrank (or any process serving the obs
// live endpoints) from the terminal: it polls GET /status and renders a
// progress line with the run phase, windows done/total, fault counts,
// and wall-time percentiles, exiting when the run reaches a terminal
// phase.
//
// Usage:
//
//	pmtop -addr localhost:8080 [-interval 1s] [-once]
//	pmtop -validate run.jsonl
//
// -validate checks a journal JSONL file (pmrank -journal-out) against
// the journal's own encoder: every line must be a known event type with
// a strictly increasing sequence number, and must decode into an
// obs.Event that Event.AppendJSON re-encodes to the identical bytes —
// so a missing, extra, or misspelled field fails. It exits nonzero on
// the first violation; CI uses it to gate the journal format.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"pmpr/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "", "host:port of a pmrank -metrics-addr -live server")
		interval = flag.Duration("interval", time.Second, "poll interval")
		once     = flag.Bool("once", false, "print one status snapshot and exit")
		validate = flag.String("validate", "", "validate a journal JSONL file against the event schema and exit")
	)
	flag.Parse()
	if *validate != "" {
		os.Exit(validateJournal(*validate))
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "pmtop: -addr or -validate is required")
		os.Exit(2)
	}
	os.Exit(watch(*addr, *interval, *once))
}

// fetchStatus polls one /status snapshot.
func fetchStatus(client *http.Client, url string) (obs.Status, error) {
	var st obs.Status
	resp, err := client.Get(url)
	if err != nil {
		return st, err
	}
	//pmvet:ignore closecheck -- read-only response body; decode errors already surface
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

// render formats one status line.
func render(st obs.Status) string {
	line := fmt.Sprintf("phase=%-8s windows=%d/%d", st.Phase, st.WindowsDone, st.WindowsTotal)
	if st.WindowsQuarantined > 0 || st.Retried > 0 || st.Degraded > 0 || st.Resumed > 0 {
		line += fmt.Sprintf(" quarantined=%d retried=%d degraded=%d resumed=%d",
			st.WindowsQuarantined, st.Retried, st.Degraded, st.Resumed)
	}
	if h, ok := st.Histograms["window_wall_seconds"]; ok && h.Count > 0 {
		line += fmt.Sprintf(" wall[p50=%.3gs p95=%.3gs p99=%.3gs]", h.P50, h.P95, h.P99)
	}
	return line
}

// terminal reports whether the run cannot progress further.
func terminal(phase string) bool {
	return phase == "done" || phase == "canceled" || phase == "failed"
}

// watch polls /status until the run reaches a terminal phase and
// returns the process exit code. The output is line-oriented (one
// status line per change) so it stays readable in plain pipes and CI
// logs, not just interactive terminals.
func watch(addr string, interval time.Duration, once bool) int {
	url := "http://" + addr + "/status"
	client := &http.Client{Timeout: 5 * time.Second}
	var last string
	for {
		st, err := fetchStatus(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmtop: %v\n", err)
			return 1
		}
		if line := render(st); line != last {
			fmt.Println(line)
			last = line
		}
		if once {
			return 0
		}
		if terminal(st.Phase) {
			if st.Phase != "done" {
				return 1
			}
			return 0
		}
		time.Sleep(interval)
	}
}

// validateJournal checks a -journal-out file line by line and returns
// the process exit code.
func validateJournal(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmtop: %v\n", err)
		return 1
	}
	//pmvet:ignore closecheck -- read-only input; decode errors already surface per line
	defer f.Close()
	fail := func(lineNo int, format string, args ...interface{}) int {
		fmt.Fprintf(os.Stderr, "pmtop: %s:%d: %s\n", path, lineNo, fmt.Sprintf(format, args...))
		return 1
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var prevSeq uint64
	lineNo, events := 0, 0
	counts := make(map[obs.EventType]int)
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		events++
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fail(lineNo, "invalid JSON: %v", err)
		}
		if !e.Type.Known() {
			return fail(lineNo, "unknown event type %q", e.Type)
		}
		if e.Seq <= prevSeq {
			return fail(lineNo, "seq %d not increasing (previous %d)", e.Seq, prevSeq)
		}
		prevSeq = e.Seq
		if want := e.AppendJSON(nil); !bytes.Equal(sc.Bytes(), want) {
			return fail(lineNo, "not in the %s schema; the journal encodes it as %s", e.Type, want)
		}
		counts[e.Type]++
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "pmtop: %s: %v\n", path, err)
		return 1
	}
	if events == 0 {
		fmt.Fprintf(os.Stderr, "pmtop: %s: empty journal\n", path)
		return 1
	}
	fmt.Printf("%s: %d events ok", path, events)
	for _, t := range []obs.EventType{obs.EvRunStart, obs.EvWindowDone, obs.EvRunEnd} {
		if n := counts[t]; n > 0 {
			fmt.Printf(" %s=%d", t, n)
		}
	}
	fmt.Println()
	return 0
}
