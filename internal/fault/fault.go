// Package fault is a deterministic, seeded fault-injection registry.
// Production code marks failure-prone seams with named injection points
// (fault.Inject("core.solve.window")); tests and chaos runs arm rules
// against those points to force errors, panics, or delays exactly where
// — and exactly as often as — the scenario calls for. Because rules
// fire on hit counters (and an optional seeded RNG), every failure
// path the solve pipeline recovers from is reproducible: the same
// arming always faults the same attempts.
//
// The package is built to disappear when disarmed: Inject first checks
// one atomic bool, so an unarmed binary pays a single atomic load per
// injection point. Points sit at window/batch/stage boundaries, never
// inside kernel iteration loops.
//
// Arming is programmatic (Arm, with a cancel function for tests) or
// declarative via a spec string, the form the PMPR_FAULTPOINTS
// environment variable uses:
//
//	point:mode[:key=value[,key=value...]][;point:mode...]
//
// with mode one of error, panic, delay and keys after (skip the first
// N-1 hits), count (fire at most N times, default 1, 0 = unlimited),
// prob (fire with seeded probability instead of on every eligible
// hit), delay (sleep duration for mode delay, default 1ms), and msg
// (error text). Examples:
//
//	PMPR_FAULTPOINTS='core.solve.window:panic'            # first window solve panics once
//	PMPR_FAULTPOINTS='core.solve.window:error:after=3,count=0' # every window attempt from the 3rd errors
//	PMPR_FAULTPOINTS='events.read_binary:delay:delay=50ms'
package fault

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is what an armed rule does when it fires.
type Mode int

const (
	// ModeError makes Inject return an *Error.
	ModeError Mode = iota
	// ModePanic makes Inject panic with an *Error value.
	ModePanic
	// ModeDelay makes Inject sleep for the rule's delay, then proceed.
	ModeDelay
)

// String names the mode as used in spec strings.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Error is the failure an armed injection point produces: the error
// ModeError returns and the value ModePanic panics with. Detect
// injected faults with errors.As.
type Error struct {
	// Point is the injection point that fired.
	Point string
	// Msg is the rule's message (defaults to "injected fault").
	Msg string
}

// Error renders the fault with its point name.
func (e *Error) Error() string { return fmt.Sprintf("fault: %s at %s", e.Msg, e.Point) }

// Rule arms one injection point.
type Rule struct {
	// Point is the injection point name the rule matches.
	Point string
	// Mode selects error, panic, or delay behavior.
	Mode Mode
	// After skips the first After-1 hits of the point; 0 or 1 means the
	// rule is eligible from the first hit.
	After int
	// Count caps how many times the rule fires; 0 means unlimited.
	Count int
	// Prob, when in (0, 1), gates each eligible hit on the registry's
	// seeded RNG; 0 (or >= 1) fires deterministically on every eligible
	// hit.
	Prob float64
	// Delay is the sleep for ModeDelay (default 1ms).
	Delay time.Duration
	// Msg overrides the injected error text.
	Msg string
}

type armedRule struct {
	Rule
	hits  atomic.Int64 // times the point was reached while this rule was armed
	fired atomic.Int64 // times the rule actually fired
}

// Registry holds armed rules and the injection-point catalog. The zero
// value is not usable; use NewRegistry. Most code uses the package
// default registry through the top-level functions.
type Registry struct {
	enabled atomic.Bool // fast path: any rule armed?

	mu     sync.Mutex
	rules  map[string][]*armedRule
	rng    *rand.Rand
	points map[string]string // name -> description (the catalog)

	injected atomic.Int64 // total faults fired (error+panic+delay)
}

// NewRegistry returns an empty registry seeded with seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{
		rules:  map[string][]*armedRule{},
		rng:    rand.New(rand.NewSource(seed)),
		points: map[string]string{},
	}
}

// Default is the package-level registry the top-level functions use.
// It is armed from PMPR_FAULTPOINTS at process start.
var Default = NewRegistry(1)

func init() {
	if spec := os.Getenv("PMPR_FAULTPOINTS"); spec != "" {
		if _, err := Default.ArmSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "fault: ignoring PMPR_FAULTPOINTS: %v\n", err)
		}
	}
	if seed := os.Getenv("PMPR_FAULTSEED"); seed != "" {
		if v, err := strconv.ParseInt(seed, 10, 64); err == nil {
			Default.Seed(v)
		}
	}
}

// RegisterPoint adds an injection point to the catalog. Call it from
// the package that owns the Inject site, so Points() enumerates every
// seam a chaos run can arm. Re-registering a name overwrites its
// description.
func (r *Registry) RegisterPoint(name, desc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points[name] = desc
}

// Points returns the registered injection-point names, sorted.
func (r *Registry) Points() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.points))
	for name := range r.points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns an injection point's registered description.
func (r *Registry) Describe(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.points[name]
}

// Seed re-seeds the RNG that probabilistic rules draw from.
func (r *Registry) Seed(seed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng = rand.New(rand.NewSource(seed))
}

// Arm adds a rule and returns a cancel function removing exactly that
// rule (test helper: defer the cancel, or use t.Cleanup).
func (r *Registry) Arm(rule Rule) (cancel func()) {
	ar := &armedRule{Rule: rule}
	r.mu.Lock()
	r.rules[rule.Point] = append(r.rules[rule.Point], ar)
	r.mu.Unlock()
	r.enabled.Store(true)
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		list := r.rules[ar.Point]
		for i, x := range list {
			if x == ar {
				r.rules[ar.Point] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(r.rules[ar.Point]) == 0 {
			delete(r.rules, ar.Point)
		}
		if len(r.rules) == 0 {
			r.enabled.Store(false)
		}
	}
}

// Reset disarms every rule. The catalog and counters survive.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules = map[string][]*armedRule{}
	r.enabled.Store(false)
}

// Enabled reports whether any rule is armed (the Inject fast path).
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Injected returns the total number of faults fired since creation.
func (r *Registry) Injected() int64 { return r.injected.Load() }

// Inject is the injection point hook. With no armed rule for point it
// returns nil after one atomic load. An armed ModeError rule makes it
// return an *Error, ModePanic makes it panic with an *Error, ModeDelay
// sleeps and returns nil.
func (r *Registry) Inject(point string) error {
	if !r.enabled.Load() {
		return nil
	}
	rule, fire := r.match(point)
	if !fire {
		return nil
	}
	r.injected.Add(1)
	msg := rule.Msg
	if msg == "" {
		msg = "injected " + rule.Mode.String()
	}
	switch rule.Mode {
	case ModePanic:
		//pmvet:ignore panic -- the entire purpose of ModePanic is to raise a test panic at the armed seam
		panic(&Error{Point: point, Msg: msg})
	case ModeDelay:
		d := rule.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
		return nil
	default:
		return &Error{Point: point, Msg: msg}
	}
}

// match finds the first armed rule for point that should fire on this
// hit and consumes one firing from it.
func (r *Registry) match(point string) (*armedRule, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ar := range r.rules[point] {
		hit := ar.hits.Add(1)
		if ar.After > 1 && hit < int64(ar.After) {
			continue
		}
		if ar.Count > 0 && ar.fired.Load() >= int64(ar.Count) {
			continue
		}
		if ar.Prob > 0 && ar.Prob < 1 && r.rng.Float64() >= ar.Prob {
			continue
		}
		ar.fired.Add(1)
		return ar, true
	}
	return nil, false
}

// ArmSpec parses and arms a spec string (the PMPR_FAULTPOINTS syntax
// documented in the package comment) and returns one cancel function
// removing every rule it added.
func (r *Registry) ArmSpec(spec string) (cancel func(), err error) {
	var cancels []func()
	undo := func() {
		for _, c := range cancels {
			c()
		}
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rule, err := ParseRule(part)
		if err != nil {
			undo()
			return nil, err
		}
		cancels = append(cancels, r.Arm(rule))
	}
	return undo, nil
}

// ParseRule parses one "point:mode[:key=value,...]" rule.
func ParseRule(s string) (Rule, error) {
	fields := strings.SplitN(s, ":", 3)
	if len(fields) < 2 || fields[0] == "" {
		return Rule{}, fmt.Errorf("fault: rule %q: want point:mode[:options]", s)
	}
	rule := Rule{Point: strings.TrimSpace(fields[0]), Count: 1}
	switch strings.TrimSpace(fields[1]) {
	case "error":
		rule.Mode = ModeError
	case "panic":
		rule.Mode = ModePanic
	case "delay":
		rule.Mode = ModeDelay
	default:
		return Rule{}, fmt.Errorf("fault: rule %q: unknown mode %q (want error, panic or delay)", s, fields[1])
	}
	if len(fields) < 3 {
		return rule, nil
	}
	for _, opt := range strings.Split(fields[2], ",") {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		kv := strings.SplitN(opt, "=", 2)
		if len(kv) != 2 {
			return Rule{}, fmt.Errorf("fault: rule %q: option %q is not key=value", s, opt)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Rule{}, fmt.Errorf("fault: rule %q: bad after=%q", s, val)
			}
			rule.After = n
		case "count":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Rule{}, fmt.Errorf("fault: rule %q: bad count=%q", s, val)
			}
			rule.Count = n
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return Rule{}, fmt.Errorf("fault: rule %q: bad prob=%q", s, val)
			}
			rule.Prob = p
			if rule.Count == 1 {
				rule.Count = 0 // probabilistic rules default to unlimited firings
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Rule{}, fmt.Errorf("fault: rule %q: bad delay=%q", s, val)
			}
			rule.Delay = d
		case "msg":
			rule.Msg = val
		default:
			return Rule{}, fmt.Errorf("fault: rule %q: unknown option %q", s, key)
		}
	}
	return rule, nil
}

// Top-level wrappers over the Default registry.

// RegisterPoint adds an injection point to the default catalog.
func RegisterPoint(name, desc string) { Default.RegisterPoint(name, desc) }

// Points lists the default catalog's injection points, sorted.
func Points() []string { return Default.Points() }

// Describe returns a default-catalog point's description.
func Describe(name string) string { return Default.Describe(name) }

// Arm arms a rule on the default registry; defer the cancel in tests.
func Arm(rule Rule) (cancel func()) { return Default.Arm(rule) }

// ArmSpec arms a PMPR_FAULTPOINTS-syntax spec on the default registry.
func ArmSpec(spec string) (cancel func(), err error) { return Default.ArmSpec(spec) }

// Reset disarms every rule on the default registry.
func Reset() { Default.Reset() }

// Enabled reports whether the default registry has any armed rule.
func Enabled() bool { return Default.Enabled() }

// Injected returns the default registry's total fired-fault count.
func Injected() int64 { return Default.Injected() }

// Inject is the default-registry injection point hook.
func Inject(point string) error { return Default.Inject(point) }

// Seed re-seeds the default registry's RNG.
func Seed(seed int64) { Default.Seed(seed) }
