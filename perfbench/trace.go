package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Times are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Parent int           `json:"parent"` // 0 = root
	Group  int           `json:"group"`  // epoch number or job index
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil *tracer records nothing, which is how untraced runs call
// the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span over [start, end] and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent, group int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.origin),
		End: end.Sub(t.origin), Parent: parent, Group: group})
	return id
}

// begin opens a span ending at the matching end call.
func (t *tracer) begin(name string, parent, group int) int {
	now := time.Now()
	return t.add(name, now, now, parent, group)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover, clipped to the span.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = x[0], x[1], true
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// maxGap is the largest relative gap allowed between the layer self times
// of an epoch or job and its wall time.
const maxGap = 0.1

// reconcile returns, for every root span named root in group order, the
// relative gap between its wall time and the summed self times of the
// other spans of its group — the layers. The root's own self time is the
// part of the wall no layer span covers, so it is left out of the sum:
// un-spanned time makes the sum fall short, and overlapping layer spans,
// which count the overlap twice, make it run over.
func reconcile(spans []span, root string) ([]float64, error) {
	byGroup := map[int][]span{}
	for _, s := range spans {
		byGroup[s.Group] = append(byGroup[s.Group], s)
	}
	groups := make([]int, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	var gaps []float64
	for _, g := range groups {
		ss := byGroup[g]
		var r *span
		for i := range ss {
			if ss[i].Name == root && ss[i].Parent == 0 {
				r = &ss[i]
			}
		}
		if r == nil {
			continue
		}
		self := selfTimes(ss)
		var sum time.Duration
		for _, s := range ss {
			if s.ID != r.ID {
				sum += self[s.ID]
			}
		}
		wall := r.dur()
		if wall <= 0 {
			return nil, fmt.Errorf("group %d: %s span has no duration", g, root)
		}
		gaps = append(gaps, math.Abs(float64(sum-wall))/float64(wall))
	}
	if len(gaps) == 0 {
		return nil, fmt.Errorf("no %s spans recorded", root)
	}
	return gaps, nil
}

// spanByID returns a copy of one recorded span.
func (t *tracer) spanByID(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}
