// Package cliutil holds the command-line plumbing shared by the cmd/
// front-ends: the engine flag set (parallel mode, partitioner,
// multi-window and scheduler knobs) that pmrank and pmserve register
// identically, the string-to-enum parsers behind those flags, and the
// format-sniffing event-log reader. Keeping this in one place means a
// flag added for the solver is immediately available to the serving
// daemon's -solve mode with the same name, default, and semantics.
package cliutil

import (
	"flag"
	"fmt"
	"os"

	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/sched"
)

// EngineFlags carries the values of the shared engine flag set after
// parsing. Field defaults come from core.DefaultConfig.
type EngineFlags struct {
	// Mode is the parallelism mode: nested, app, or window.
	Mode string
	// Partitioner selects the scheduler partitioner: auto, simple, or
	// static.
	Partitioner string
	// MW is the number of multi-window graphs.
	MW int
	// Grain is the scheduler grain size.
	Grain int
	// NoPartial disables partial initialization.
	NoPartial bool
	// Directed treats events as directed (no symmetrization).
	Directed bool
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
}

// RegisterEngineFlags registers the shared engine flag set on fs with
// the canonical names (-mode, -partitioner, -mw, -grain, -no-partial,
// -directed, -workers) and core.DefaultConfig's
// values as defaults, and returns the struct the parsed values land in.
func RegisterEngineFlags(fs *flag.FlagSet) *EngineFlags {
	def := core.DefaultConfig()
	ef := &EngineFlags{}
	fs.StringVar(&ef.Mode, "mode", def.Mode.String(), "parallelism: nested, app or window")
	fs.StringVar(&ef.Partitioner, "partitioner", def.Partitioner.String(), "partitioner: auto, simple or static")
	fs.IntVar(&ef.MW, "mw", def.NumMultiWindows, "number of multi-window graphs")
	fs.IntVar(&ef.Grain, "grain", def.Grain, "scheduler grain size")
	fs.BoolVar(&ef.NoPartial, "no-partial", !def.PartialInit, "disable partial initialization")
	fs.BoolVar(&ef.Directed, "directed", def.Directed, "treat events as directed (default: symmetrize)")
	fs.IntVar(&ef.Workers, "workers", 0, "pool size (0 = GOMAXPROCS)")
	return ef
}

// ApplyTo copies the flag values into an engine config. It fails on an
// unknown -mode or -partitioner value, naming the valid ones.
func (ef *EngineFlags) ApplyTo(cfg *core.Config) error {
	mode, err := ParseMode(ef.Mode)
	if err != nil {
		return err
	}
	part, err := ParsePartitioner(ef.Partitioner)
	if err != nil {
		return err
	}
	cfg.Mode = mode
	cfg.Partitioner = part
	cfg.NumMultiWindows = ef.MW
	cfg.Grain = ef.Grain
	cfg.PartialInit = !ef.NoPartial
	cfg.Directed = ef.Directed
	return nil
}

// ParseMode maps a -mode flag value to its id.
func ParseMode(s string) (core.ParallelMode, error) {
	switch s {
	case "nested":
		return core.Nested, nil
	case "app":
		return core.AppLevel, nil
	case "window":
		return core.WindowLevel, nil
	}
	return 0, fmt.Errorf("unknown -mode %q (valid: nested, app, window)", s)
}

// ParsePartitioner maps a -partitioner flag value to its id.
func ParsePartitioner(s string) (sched.Partitioner, error) {
	switch s {
	case "auto":
		return sched.Auto, nil
	case "simple":
		return sched.Simple, nil
	case "static":
		return sched.Static, nil
	}
	return 0, fmt.Errorf("unknown -partitioner %q (valid: auto, simple, static)", s)
}

// ReadLog opens and decodes an event file, sniffing the binary magic
// to pick the decoder; "-" reads stdin (which must be seekable — pipe
// through a file when it is not).
func ReadLog(path string) (*events.Log, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		f, err = os.Open(path)
		if err != nil {
			return nil, err
		}
		//pmvet:ignore closecheck -- read-only input; decode errors already surface via the reader
		defer f.Close()
	}
	// Sniff the magic to pick the decoder.
	head := make([]byte, 4)
	n, _ := f.Read(head)
	if _, err := f.Seek(0, 0); err != nil && path == "-" {
		return nil, fmt.Errorf("stdin must be seekable; pipe to a file first")
	}
	if n == 4 && string(head) == "PMEV" {
		return events.ReadBinary(f)
	}
	return events.ReadText(f)
}
