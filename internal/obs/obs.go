// Package obs is the observability substrate of the repo: build-info
// stamping, the run journal (a sequence-numbered event stream) and the
// views derived from it, a small metrics registry (Prometheus text
// exposition), a Chrome trace-event writer, and an HTTP server bundling
// /metrics, /status, /events and net/http/pprof.
//
// The journal is the only telemetry the solve pipeline emits
// (core.Config.Journal). One reducer inside it derives the fault
// counters, the per-window histograms, the /status snapshot, and the
// optional Chrome trace; with no journal attached the engine collects
// nothing beyond its RunReport.
package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies the binary and host that produced a run, so
// results files and traces are attributable and reproducible.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	Module      string `json:"module,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
}

// CollectBuildInfo reads runtime/debug.ReadBuildInfo and the runtime
// environment. Fields missing from the build (e.g. VCS stamps under
// `go test`) are left empty.
func CollectBuildInfo() BuildInfo {
	bi := BuildInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		bi.Module = info.Main.Path
		bi.Version = info.Main.Version
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				bi.VCSRevision = s.Value
			case "vcs.time":
				bi.VCSTime = s.Value
			case "vcs.modified":
				bi.VCSModified = s.Value == "true"
			}
		}
	}
	return bi
}

// String renders the one-line identification the binaries print for
// -version.
func (b BuildInfo) String() string {
	rev := b.VCSRevision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev == "" {
		rev = "dev"
	}
	if b.VCSModified {
		rev += "-dirty"
	}
	return fmt.Sprintf("%s %s (%s, %s/%s, %d/%d cpus)",
		b.Module, rev, b.GoVersion, b.GOOS, b.GOARCH, b.GOMAXPROCS, b.NumCPU)
}
