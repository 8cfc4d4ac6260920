package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"asterixfeeds/internal/hyracks"
	"asterixfeeds/internal/lsm"
)

// Action is what an armed fault does when its point is hit.
type Action int

const (
	// ActErr fails the operation cleanly (lsm.ErrInjected): a transient
	// environmental failure such as a full disk or an fsync error. On a
	// core ack point it drops the ack message instead.
	ActErr Action = iota
	// ActTorn persists a torn prefix of the WAL record, wedges the tree,
	// and kills the hosting node — a crash mid-write. At the background
	// points (flush:bg, merge:bg) it instead leaves the half-written run as
	// temp-file debris and kills the node mid-flush/merge; the WAL segments
	// still hold every unflushed record for replay. lsm points only.
	ActTorn
	// ActKill kills the node at a frame boundary. Frame points only.
	ActKill
	// ActStall delays the task briefly at a frame boundary. Frame points
	// only.
	ActStall
	// ActCrash crashes the adaptor, which restarts and re-emits its last
	// few records. Adaptor points only.
	ActCrash
	// ActFlip corrupts the bytes coming back from a run block disk read
	// (lsm.ErrCorruptRead): the block's CRC must catch the flip and the
	// reader must retry — the bytes on disk are intact. read:block points
	// only.
	ActFlip
)

var actionNames = [...]string{ActErr: "err", ActTorn: "torn", ActKill: "kill", ActStall: "stall", ActCrash: "crash", ActFlip: "flip"}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", int(a))
}

func parseAction(s string) (Action, error) {
	for a, name := range actionNames {
		if s == name {
			return Action(a), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown action %q", s)
}

// Fault arms one failure: the Hit'th time Point is reached, Action fires.
type Fault struct {
	Point  string
	Hit    int
	Action Action
}

// String renders the fault as "point@hit:action".
func (f Fault) String() string {
	return fmt.Sprintf("%s@%d:%s", f.Point, f.Hit, f.Action)
}

func parseFault(s string) (Fault, error) {
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return Fault{}, fmt.Errorf("chaos: fault %q lacks @hit", s)
	}
	rest := s[at+1:]
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return Fault{}, fmt.Errorf("chaos: fault %q lacks :action", s)
	}
	hit, err := strconv.Atoi(rest[:colon])
	if err != nil || hit < 1 {
		return Fault{}, fmt.Errorf("chaos: fault %q has bad hit count", s)
	}
	act, err := parseAction(rest[colon+1:])
	if err != nil {
		return Fault{}, err
	}
	return Fault{Point: s[:at], Hit: hit, Action: act}, nil
}

// Schedule is an ordered set of armed faults.
type Schedule []Fault

// String renders the schedule as ';'-joined faults — the replayable
// one-line repro printed by cmd/feedchaos.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// ParseSchedule parses the String form back into a schedule.
func ParseSchedule(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out Schedule
	for _, part := range strings.Split(s, ";") {
		f, err := parseFault(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Injector counts hits on every named failure point and fires armed faults
// when a point's hit count matches. It is shared by every hook of one
// scenario; all methods are safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	armed    map[string][]Fault
	hits     map[string]int
	fired    []string
	disarmed bool
	// acting counts faults that fired and whose hook has not finished acting
	// on them yet (killing the node, say); Disarm waits it out.
	acting sync.WaitGroup
	killFn func(node string)
	stall  time.Duration
}

// NewInjector arms the schedule. killFn is invoked (outside the injector
// lock) for ActTorn and ActKill faults with the victim node's name.
func NewInjector(s Schedule, killFn func(node string)) *Injector {
	in := &Injector{
		armed:  make(map[string][]Fault),
		hits:   make(map[string]int),
		killFn: killFn,
		stall:  2 * time.Millisecond,
	}
	for _, f := range s {
		in.armed[f.Point] = append(in.armed[f.Point], f)
	}
	return in
}

// fire records a hit on point and reports the armed action, if any fault
// matches this occurrence. A caller told ok must call in.acting.Done() once
// it has acted on the fault.
func (in *Injector) fire(point string) (Action, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.disarmed {
		return 0, false
	}
	in.hits[point]++
	h := in.hits[point]
	for _, f := range in.armed[point] {
		if f.Hit == h {
			in.fired = append(in.fired, f.String())
			in.acting.Add(1) // under in.mu with disarmed unset: ordered before Disarm's Wait
			return f.Action, true
		}
	}
	return 0, false
}

// Disarm permanently silences the injector: every later hit on any point
// passes through clean. The runner calls it once the workload has drained,
// before the invariant checks — verification reads (index scans, digests)
// must observe the system's state, not inject fresh faults into it. This
// matters for read-path points in particular: unlike the write-path points,
// which the workload stops exercising when ingestion stops, verification
// itself is made of reads. It returns only after every fault that had
// already fired has finished acting, so a kill is either visible to the
// caller's next look at the cluster or never happens.
func (in *Injector) Disarm() {
	in.mu.Lock()
	in.disarmed = true
	in.mu.Unlock()
	in.acting.Wait()
}

// Fired lists the faults that actually triggered, in firing order.
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.fired...)
}

// Unfired lists armed faults whose hit count was never reached — the
// workload did not exercise their point often enough. Informational, not an
// error: schedules are generated against a point menu, not a trace.
func (in *Injector) Unfired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	firedSet := make(map[string]bool, len(in.fired))
	for _, f := range in.fired {
		firedSet[f] = true
	}
	var out []string
	for _, faults := range in.armed {
		for _, f := range faults {
			if !firedSet[f.String()] {
				out = append(out, f.String())
			}
		}
	}
	sort.Strings(out)
	return out
}

func (in *Injector) kill(node string) {
	if in.killFn != nil {
		in.killFn(node)
	}
}

// LSMHook returns the fault hook to install in one node's storage manager
// (lsm.Options.FaultHook). Point names look like
// "lsm:B/p000/primary/wal.appendBatch": node, partition directory, tree,
// WAL operation.
func (in *Injector) LSMHook(node string) lsm.FaultHook {
	return func(op string) error {
		act, ok := in.fire("lsm:" + node + "/" + op)
		if !ok {
			return nil
		}
		defer in.acting.Done()
		switch act {
		case ActTorn:
			// A torn write is a crash mid-write: the node dies with its
			// wedged tree, and recovery reopens from disk elsewhere. At
			// read:block the same action models a node lost to a media
			// failure mid-read.
			in.kill(node)
			return lsm.ErrTornWrite
		case ActFlip:
			return lsm.ErrCorruptRead
		}
		return lsm.ErrInjected
	}
}

// FrameHook returns the hook to install as hyracks.Config.FrameFault.
// Point names look like "frame:B:Store" — node and operator (name up to
// the first '('), hit once per frame the operator's task dequeues.
func (in *Injector) FrameHook() func(node, op string, f *hyracks.Frame) {
	return func(node, op string, _ *hyracks.Frame) {
		if i := strings.IndexByte(op, '('); i >= 0 {
			op = op[:i]
		}
		act, ok := in.fire("frame:" + node + ":" + op)
		if !ok {
			return
		}
		defer in.acting.Done()
		switch act {
		case ActKill:
			in.kill(node)
		case ActStall:
			time.Sleep(in.stall)
		}
	}
}

// CoreHook returns the hook to install as core.Options.FaultHook. Point
// names are "core:ack:<node>" and "core:resync:insert"; any armed action
// injects the failure (ack dropped, resync insert failed).
func (in *Injector) CoreHook() func(point string) error {
	return func(point string) error {
		if _, ok := in.fire("core:" + point); ok {
			in.acting.Done()
			return lsm.ErrInjected
		}
		return nil
	}
}

// AdaptorCrash reports whether an adaptor crash fires at this emit of the
// given intake partition (point "adaptor:p<partition>").
func (in *Injector) AdaptorCrash(partition int) bool {
	act, ok := in.fire(fmt.Sprintf("adaptor:p%d", partition))
	if ok {
		in.acting.Done()
	}
	return ok && act == ActCrash
}
