// Package cliutil holds the command-line plumbing shared by the cmd/
// front-ends: the engine flag set (kernel, parallel mode, partitioner,
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
// parsing. Field defaults mirror core.DefaultConfig.
type EngineFlags struct {
	// Kernel is the kernel name: spmm, spmv, or spmv-blocked.
	Kernel string
	// Mode is the parallelism mode: nested, app, or window.
	Mode string
	// Partitioner selects the scheduler partitioner: auto, simple, or
	// static.
	Partitioner string
	// MW is the number of multi-window graphs.
	MW int
	// VecLen is the SpMM vector length.
	VecLen int
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
// the canonical names and defaults (-kernel, -mode, -partitioner, -mw,
// -veclen, -grain, -no-partial, -directed, -workers) and returns the
// struct the parsed values land in.
func RegisterEngineFlags(fs *flag.FlagSet) *EngineFlags {
	ef := &EngineFlags{}
	fs.StringVar(&ef.Kernel, "kernel", "spmm", "kernel: spmm, spmv or spmv-blocked")
	fs.StringVar(&ef.Mode, "mode", "nested", "parallelism: nested, app or window")
	fs.StringVar(&ef.Partitioner, "partitioner", "auto", "partitioner: auto, simple or static")
	fs.IntVar(&ef.MW, "mw", 6, "number of multi-window graphs")
	fs.IntVar(&ef.VecLen, "veclen", 8, "SpMM vector length: windows advanced per sweep, 1..64")
	fs.IntVar(&ef.Grain, "grain", 2, "scheduler grain size")
	fs.BoolVar(&ef.NoPartial, "no-partial", false, "disable partial initialization")
	fs.BoolVar(&ef.Directed, "directed", false, "treat events as directed (default: symmetrize)")
	fs.IntVar(&ef.Workers, "workers", 0, "pool size (0 = GOMAXPROCS)")
	return ef
}

// KernelID resolves the -kernel flag value.
func (ef *EngineFlags) KernelID() core.KernelID { return ParseKernel(ef.Kernel) }

// ParallelMode resolves the -mode flag value.
func (ef *EngineFlags) ParallelMode() core.ParallelMode { return ParseMode(ef.Mode) }

// SchedPartitioner resolves the -partitioner flag value.
func (ef *EngineFlags) SchedPartitioner() sched.Partitioner { return ParsePartitioner(ef.Partitioner) }

// ApplyTo copies the flag values into an engine config.
func (ef *EngineFlags) ApplyTo(cfg *core.Config) {
	cfg.Kernel = ef.KernelID()
	cfg.Mode = ef.ParallelMode()
	cfg.Partitioner = ef.SchedPartitioner()
	cfg.NumMultiWindows = ef.MW
	cfg.VectorLen = ef.VecLen
	cfg.Grain = ef.Grain
	cfg.PartialInit = !ef.NoPartial
	cfg.Directed = ef.Directed
}

// ParseKernel maps a kernel flag value to its id (unknown values fall
// back to SpMM, the paper's primary kernel).
func ParseKernel(s string) core.KernelID {
	switch s {
	case "spmv":
		return core.SpMV
	case "spmv-blocked":
		return core.SpMVBlocked
	default:
		return core.SpMM
	}
}

// ParseMode maps a mode flag value to its id (default nested).
func ParseMode(s string) core.ParallelMode {
	switch s {
	case "app":
		return core.AppLevel
	case "window":
		return core.WindowLevel
	default:
		return core.Nested
	}
}

// ParsePartitioner maps a partitioner flag value to its id (default
// auto).
func ParsePartitioner(s string) sched.Partitioner {
	switch s {
	case "simple":
		return sched.Simple
	case "static":
		return sched.Static
	default:
		return sched.Auto
	}
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
