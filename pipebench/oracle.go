package main

import (
	"fmt"
	"slices"
	"strings"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/radio"
)

// verdict is the correctness oracle's finding for one session.
type verdict struct {
	attempted int // expected deliveries
	missed    int // expected deliveries that failed
	lost      int // of those, deliveries that never arrived
	extra     int // deliveries nobody should have received
	problems  []string
	latNS     []int64 // due-to-visible latency per correct measured delivery
	latDue    []int64 // the due time of each latNS sample
}

func (v *verdict) fail(format string, args ...any) {
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// check compares every receiver's application state with the
// schedule: each expected item exactly once, with the sender's content,
// at the tier bs.Assess reports and, on repair workloads, in
// per-sender order.  It also collects latencies for items with id >=
// firstMeasured.
func (s *harness) check(firstMeasured int) verdict {
	t := s.t
	var v verdict
	ordered := t.in.spec.repair
	byID := func(id int) *item {
		if id < 1 || id > len(s.items) {
			return nil
		}
		return &s.items[id-1]
	}
	for r, w := range s.w {
		me := t.id(r)
		got := make([]int, len(s.items)+1)    // correct deliveries per item
		seen := make([]int64, len(s.items)+1) // when each became visible
		bad := make([]bool, len(s.items)+1)   // failed for another reason
		accounted := 0                        // events the state explains
		type stream struct {
			sender string
			kind   itemKind
		}
		last := map[stream]int{} // per-sender order (repair only)
		deliver := func(it *item, at []int64, k int, sender string) {
			got[it.id]++
			if got[it.id] > 1 {
				bad[it.id] = true
				v.fail("%s: item %d delivered %d times", me, it.id, got[it.id])
				return
			}
			if ordered {
				key := stream{sender, it.kind}
				if it.id < last[key] {
					bad[it.id] = true
					v.fail("%s: item %d from %s after item %d", me, it.id, sender, last[key])
				}
				last[key] = it.id
			}
			if k < len(at) {
				seen[it.id] = at[k]
			}
		}

		for k, ln := range w.c.Chat().Lines() {
			if ln.Sender == me {
				continue // the local echo of its own lines
			}
			accounted++
			id := -1
			if rest, ok := strings.CutPrefix(ln.Text, "#"); ok {
				id = leadingInt(rest)
			}
			it := byID(id)
			if it == nil || it.kind != kindChat || !t.receives(it, r) || t.id(it.sender) != ln.Sender || it.text != ln.Text {
				v.extra++
				v.fail("%s: unexpected chat line %q from %s", me, ln.Text, ln.Sender)
				continue
			}
			deliver(it, w.chatSeen, k, ln.Sender)
		}
		for k, st := range w.c.Whiteboard().Strokes() {
			it := byID(int(st.ID))
			if it != nil && it.sender == r {
				continue
			}
			accounted++
			if it == nil || it.kind != kindStroke || !t.receives(it, r) || !slices.Equal(it.stroke.Points, st.Points) {
				v.extra++
				v.fail("%s: unexpected stroke %d", me, st.ID)
				continue
			}
			deliver(it, w.wbSeen, k, t.id(it.sender))
		}
		for k, d := range w.c.Inbox().Items() {
			accounted++
			id := -1
			if rest, ok := strings.CutPrefix(d.Object.Description, "img#"); ok {
				id = leadingInt(rest)
			}
			it := byID(id)
			if it == nil || it.kind != kindImage || !t.receives(it, r) || t.id(it.sender) != d.Sender {
				v.extra++
				v.fail("%s: unexpected inbox object %q", me, d.Object.Description)
				continue
			}
			want := t.tierFor(it.sender, r)
			if want == radio.TierImage || d.Object.Kind != tierKind(want) {
				bad[it.id] = true
				v.fail("%s: item %d arrived as %s, want tier %s", me, it.id, d.Object.Kind, want)
			}
			deliver(it, w.inboxSeen, k, d.Sender)
		}

		expected := 0
		for i := range s.items {
			it := &s.items[i]
			if !t.receives(it, r) {
				continue
			}
			expected++
			if it.kind == kindImage && t.tierFor(it.sender, r) == radio.TierImage {
				st, err := w.c.Viewer().Stats(it.object)
				if err == nil {
					accounted++ // its announce event
				}
				if err == nil && st.PacketsReceived == st.TotalPackets && w.viewerSeen[it.id] > 0 {
					got[it.id]++
					seen[it.id] = w.viewerSeen[it.id]
				}
			}
			switch {
			case got[it.id] == 0:
				v.missed++
				v.lost++
				v.fail("%s: item %d (%s) never arrived", me, it.id, t.id(it.sender))
			case bad[it.id]:
				v.missed++
			case it.id >= firstMeasured:
				v.latNS = append(v.latNS, seen[it.id]-s.due[it.id])
				v.latDue = append(v.latDue, s.due[it.id])
			}
		}
		v.attempted += expected
		// Duplicates the state cannot show (a re-applied stroke, a
		// second announce) still count as accepted events.
		if residual := int(w.c.Stats().EventsReceived) - accounted; residual > 0 {
			v.extra += residual
			v.fail("%s: %d accepted events beyond its application state", me, residual)
		}
	}
	return v
}

func tierKind(t radio.Tier) media.Kind {
	if t == radio.TierSketch {
		return media.KindSketch
	}
	return media.KindText
}

// windowQuantile is the median across windows (by due time) of each
// window's q-quantile latency, in ns.
func windowQuantile(v verdict, q float64) float64 {
	if len(v.latDue) == 0 {
		return 0
	}
	first := v.latDue[0]
	for _, d := range v.latDue {
		first = min(first, d)
	}
	wins := map[int64][]int64{}
	for i, d := range v.latDue {
		k := (d - first) / int64(windowLen)
		wins[k] = append(wins[k], v.latNS[i])
	}
	qs := make([]float64, 0, len(wins))
	for _, w := range wins {
		qs = append(qs, quantileNS(w, q))
	}
	return median(qs)
}
