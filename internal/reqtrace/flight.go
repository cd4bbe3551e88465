package reqtrace

import "sptrsv/internal/runtime"

// Flight is one captured anomalous request: its summary record, what
// triggered the capture, and — when the solve was traced — the runtime
// result whose per-rank events the flight's Chrome export stitches in.
type Flight struct {
	Record  *Record
	Trigger string // slow | fault | refine | request
	// Res holds the solve's runtime result when tracing was armed for the
	// request; nil for an untraced capture (the first incident on a slot —
	// the recorder's re-arming makes the next incident a full trace).
	Res *runtime.Result
}

// Events returns the runtime trace event count the flight retains.
func (f *Flight) Events() int {
	if f.Res == nil || f.Res.Trace == nil {
		return 0
	}
	return f.Res.Trace.Events()
}

// Dropped returns how many runtime trace events the solve's rings dropped.
func (f *Flight) Dropped() int {
	if f.Res == nil || f.Res.Trace == nil {
		return 0
	}
	n := 0
	for _, d := range f.Res.Trace.Dropped {
		n += d
	}
	return n
}

// Recorder is the flight recorder's size-bounded LRU: at most maxFlights
// entries AND at most maxEvents total retained runtime trace events,
// whichever bites first — a run of heavily traced incidents evicts older
// flights faster than a run of span-only ones. Re-capturing an ID replaces
// the entry.
type Recorder struct{ idx *bounded[*Flight] }

// NewRecorder bounds the recorder (maxFlights <= 0 means 1; maxEvents <= 0
// means unlimited events, entry cap only).
func NewRecorder(maxFlights, maxEvents int) *Recorder {
	return &Recorder{idx: newBounded(maxFlights, maxEvents, (*Flight).Events)}
}

// Capture stores f, evicting the oldest flights until both bounds hold,
// and returns how many were evicted. A flight whose own trace exceeds
// maxEvents is still kept (alone) — refusing the very capture that blew
// the budget would hide the worst incidents.
func (r *Recorder) Capture(f *Flight) (evicted int) { return r.idx.put(f.Record.ID, f) }

// Get returns the flight captured for id.
func (r *Recorder) Get(id string) (*Flight, bool) { return r.idx.get(id) }

// List returns all flights, newest first.
func (r *Recorder) List() []*Flight { return r.idx.newest(0) }

// Len returns the held flight count.
func (r *Recorder) Len() int { return r.idx.len() }

// Events returns the total retained runtime trace events.
func (r *Recorder) Events() int { return r.idx.totalWeight() }
