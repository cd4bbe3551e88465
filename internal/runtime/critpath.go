package runtime

import (
	"fmt"
	"math"
	"sort"
)

// This file analyzes the dependency structure of a traced run: the critical
// path (the longest chain of task → message → task dependencies, whose
// length is the makespan lower bound no schedule of the same DAG can beat)
// and the per-message slack that identifies which communication edges are
// actually rate-limiting. The analysis is exact for the discrete-event
// backend, whose clock only advances through recorded spans; on Pool traces
// it is an approximation subject to scheduler noise.

// PathStep is one element of the critical path, chronological. Kind "msg"
// denotes a network-latency hop from the Peer rank's send to this rank's
// resume (for Ctx.After / Ctx.SendAfter self-events this is the modeled
// task or put delay); the other kinds mirror EventKind strings.
type PathStep struct {
	Rank       int
	Kind       string
	Cat        Category
	Tag        int
	Peer       int
	MsgID      int64
	Start, Dur float64
}

// CriticalPath is the longest dependency chain of one traced run.
type CriticalPath struct {
	// Makespan is the run's latest rank clock.
	Makespan float64
	// Length is the total time along the chain — work spans plus message
	// latencies. It is a lower bound on the makespan of any schedule of
	// this dependency graph, and Length ≤ Makespan always holds (the
	// chain's spans are disjoint intervals of the run).
	Length float64
	// WorkByCat splits the chain's work spans (compute, send and recv
	// overheads, elapse) by category.
	WorkByCat [NumCategories]float64
	// LatencySeconds is the chain time spent in network latency (or
	// modeled GPU task/put delays) rather than rank-attributed work.
	LatencySeconds float64
	// MsgHops counts the message edges on the chain.
	MsgHops int
	Steps   []PathStep
}

// CriticalPath walks the trace backward from the event that determines the
// makespan: each span's predecessor is the previous span on the same rank
// (they are contiguous — the DES clock only advances through recorded
// spans), except that a wait span's predecessor is the send that produced
// the awaited message, reached across the network-latency edge. The
// resulting chain is the run's actual critical path.
func (r *Result) CriticalPath() (*CriticalPath, error) {
	t := r.Trace
	if t == nil {
		return nil, fmt.Errorf("runtime: run was not traced (set Options.Trace)")
	}
	if !t.Complete() {
		return nil, fmt.Errorf("runtime: trace dropped events (raise Options.TraceCap for critical-path analysis)")
	}
	// Index send events by message id.
	type loc struct{ rank, idx int }
	sends := map[int64]loc{}
	total := 0
	for rank, evs := range t.Ranks {
		total += len(evs)
		for i := range evs {
			if evs[i].Kind == EvSend && evs[i].MsgID != 0 {
				sends[evs[i].MsgID] = loc{rank, i}
			}
		}
	}
	// The chain ends at the last event of the rank that finishes last.
	rank, idx, end := -1, -1, math.Inf(-1)
	for rk, evs := range t.Ranks {
		if n := len(evs); n > 0 && evs[n-1].End() > end {
			rank, idx, end = rk, n-1, evs[n-1].End()
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("runtime: empty trace")
	}
	cp := &CriticalPath{Makespan: r.MaxClock()}
	var steps []PathStep
	for iter := 0; ; iter++ {
		if iter > total+1 {
			return nil, fmt.Errorf("runtime: critical-path walk did not terminate (malformed trace)")
		}
		e := &t.Ranks[rank][idx]
		if e.Kind == EvWait {
			s, ok := sends[e.MsgID]
			if !ok {
				// A wait on a message whose send was not traced (cannot
				// happen on a complete Engine trace): end the chain here.
				break
			}
			se := &t.Ranks[s.rank][s.idx]
			lat := e.End() - se.End()
			if lat < 0 {
				lat = 0
			}
			steps = append(steps, PathStep{
				Rank: rank, Kind: "msg", Cat: e.Cat, Tag: e.Tag, Peer: s.rank,
				MsgID: e.MsgID, Start: se.End(), Dur: lat,
			})
			cp.Length += lat
			cp.LatencySeconds += lat
			cp.MsgHops++
			rank, idx = s.rank, s.idx
			continue
		}
		if e.Kind == EvSweep {
			// Sweep annotations cover the per-task compute spans that
			// already advanced the clock; counting both would double the
			// chain. Skip the annotation and keep walking the real spans.
			if idx == 0 {
				break
			}
			idx--
			continue
		}
		if e.Dur > 0 || e.Kind == EvSend {
			steps = append(steps, PathStep{
				Rank: rank, Kind: e.Kind.String(), Cat: e.Cat, Tag: e.Tag,
				Peer: e.Peer, MsgID: e.MsgID, Start: e.Start, Dur: e.Dur,
			})
			cp.Length += e.Dur
			cp.WorkByCat[e.Cat] += e.Dur
		}
		if idx == 0 {
			break
		}
		idx--
	}
	// The walk collected steps newest-first; present them chronologically.
	for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
		steps[i], steps[j] = steps[j], steps[i]
	}
	cp.Steps = steps
	return cp, nil
}

// SweepStats summarizes the level-sweep annotations of a traced run — the
// scheduled execution path records one EvSweep per sweep with the task
// count in the tag (LevelSweepTag), and this is the analyzer-side view:
// how many sweeps ran, how much compute they covered, and how wide they
// were. A handler-path trace has no sweeps and yields the zero value.
type SweepStats struct {
	// Sweeps counts level-sweep spans over all ranks; Tasks sums their
	// decoded task counts.
	Sweeps, Tasks int
	// Seconds is the total time covered by sweep spans over all ranks.
	Seconds float64
	// MaxTasks is the widest single sweep: the most diagonal solves one
	// rank found ready at once.
	MaxTasks int
}

// MeanTasks returns the average tasks per sweep (0 when no sweeps ran).
func (s SweepStats) MeanTasks() float64 {
	if s.Sweeps == 0 {
		return 0
	}
	return float64(s.Tasks) / float64(s.Sweeps)
}

// LevelSweeps aggregates the run's level-sweep annotations; it fails only
// when the run was not traced at all.
func (r *Result) LevelSweeps() (SweepStats, error) {
	if r.Trace == nil {
		return SweepStats{}, fmt.Errorf("runtime: run was not traced (set Options.Trace)")
	}
	var s SweepStats
	for _, evs := range r.Trace.Ranks {
		for i := range evs {
			e := &evs[i]
			if e.Kind != EvSweep {
				continue
			}
			n, ok := LevelSweepTaskCount(e.Tag)
			if !ok {
				continue
			}
			s.Sweeps++
			s.Tasks += n
			s.Seconds += e.Dur
			if n > s.MaxTasks {
				s.MaxTasks = n
			}
		}
	}
	return s, nil
}

// Edge is one observed message dependency: sent by Src, consumed by Dst.
type Edge struct {
	MsgID    int64
	Src, Dst int
	Cat      Category
	Tag      int
	Bytes    int
	// SendEnd is when the sender finished injecting, Arrive when the
	// payload reached the receiver, Consume when the receiver started
	// processing it.
	SendEnd, Arrive, Consume float64
	// Slack is Consume − Arrive: how much later the message could have
	// arrived without delaying the receiver. Zero-slack edges are the
	// candidates for the next communication optimization.
	Slack float64
	// Wait is the receiver idle time this message ended (0 when the
	// receiver never blocked on it).
	Wait float64
}

// MessageEdges extracts every message dependency from the trace, in
// delivery order per receiving rank.
func (r *Result) MessageEdges() ([]Edge, error) {
	t := r.Trace
	if t == nil {
		return nil, fmt.Errorf("runtime: run was not traced (set Options.Trace)")
	}
	sendEnd := map[int64]float64{}
	for _, evs := range t.Ranks {
		for i := range evs {
			if evs[i].Kind == EvSend && evs[i].MsgID != 0 {
				sendEnd[evs[i].MsgID] = evs[i].End()
			}
		}
	}
	var edges []Edge
	for rank, evs := range t.Ranks {
		waits := map[int64]float64{}
		for i := range evs {
			e := &evs[i]
			switch e.Kind {
			case EvWait:
				waits[e.MsgID] += e.Dur
			case EvRecv:
				edges = append(edges, Edge{
					MsgID: e.MsgID, Src: e.Peer, Dst: rank,
					Cat: e.Cat, Tag: e.Tag, Bytes: e.Bytes,
					SendEnd: sendEnd[e.MsgID], Arrive: e.Arrive, Consume: e.Start,
					Slack: e.Start - e.Arrive, Wait: waits[e.MsgID],
				})
			}
		}
	}
	return edges, nil
}

// TopSlack returns the k edges with the least slack (ties broken toward
// larger transfers): the messages most likely to be rate-limiting.
func TopSlack(edges []Edge, k int) []Edge {
	out := append([]Edge(nil), edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slack != out[j].Slack {
			return out[i].Slack < out[j].Slack
		}
		return out[i].Bytes > out[j].Bytes
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// TopWait returns the k edges that ended the longest receiver waits — where
// ranks actually sat idle, the Figs. 8–11 "recv-wait" story per message.
func TopWait(edges []Edge, k int) []Edge {
	out := append([]Edge(nil), edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wait != out[j].Wait {
			return out[i].Wait > out[j].Wait
		}
		return out[i].Bytes > out[j].Bytes
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
