package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/transport"
)

// The traced run records spans around the benchmark's own calls into
// each module's public functions, plus every datagram a client or the
// base station hands to the substrate (through a wrapping
// transport.Conn).  Tracing inside the program is a later change.

type layerID uint8

const (
	layerCore layerID = iota
	layerTransport
	layerBaseStation
	layerMedia
	layerInference
	numLayers
)

var layerNames = [numLayers]string{"core", "transport", "basestation", "media", "inference"}

// Span names: one per instrumented call.
const (
	spanPublish     = "core.publish"        // Client.Say / Draw / ShareImage
	spanUplinkShare = "basestation.uplink"  // BaseStation.UplinkShare
	spanClientSend  = "transport.send"      // client Conn.Multicast / Unicast
	spanBSSend      = "basestation.send"    // base-station Conn sends
	spanRFSend      = "basestation.rf_send" // the subset on the radio segment
	spanJoin        = "basestation.join"    // BaseStation.Join
	spanEncode      = "media.encode"        // media.EncodeImage
	spanAdapt       = "inference.adapt"     // Client.AdaptOnce
)

// maxStoredSpans bounds the spans kept for the span file; aggregates
// cover every span.
const maxStoredSpans = 100_000

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the file, -1 = root
	Item   int32  `json:"item"`   // -1 = not attributable
}

// openSpan is a span in progress on the generator goroutine; sends it
// causes add their time to children.
type openSpan struct {
	name     string
	layer    layerID
	start    int64
	item     int32
	idx      int32
	children atomic.Int64
}

type layerAgg struct {
	spans         int
	totalNS       int64
	selfNS        int64
	frames, bytes uint64 // transport-level layers only
	messages      uint64
}

type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	agg   [numLayers]layerAgg
	durs  map[string][]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), durs: make(map[string][]int64)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span on the generator goroutine.
func (r *recorder) begin(layer layerID, name string, itemID int) *openSpan {
	r.mu.Lock()
	idx := int32(-1)
	if len(r.spans) < maxStoredSpans {
		idx = int32(len(r.spans))
		r.spans = append(r.spans, span{Name: name, Parent: -1, Item: int32(itemID)})
	}
	r.mu.Unlock()
	return &openSpan{name: name, layer: layer, start: r.now(), item: int32(itemID), idx: idx}
}

func (r *recorder) end(sp *openSpan) {
	end := r.now()
	dur := end - sp.start
	r.mu.Lock()
	if sp.idx >= 0 {
		r.spans[sp.idx].Start, r.spans[sp.idx].End = sp.start, end
	}
	a := &r.agg[sp.layer]
	a.spans++
	a.totalNS += dur
	a.selfNS += dur - sp.children.Load()
	r.durs[sp.name] = append(r.durs[sp.name], dur)
	r.mu.Unlock()
}

// send records one datagram handed to the substrate: a span with no
// children, plus the frame, byte and whole-message counts.
func (r *recorder) send(layer layerID, name string, start, end int64, parent *openSpan, itemID int32, bytes int, whole bool) {
	dur := end - start
	pidx := int32(-1)
	if parent != nil {
		parent.children.Add(dur)
		pidx, itemID = parent.idx, parent.item
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) < maxStoredSpans {
		r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: pidx, Item: itemID})
	}
	a := &r.agg[layer]
	a.spans++
	a.totalNS += dur
	a.selfNS += dur
	a.frames++
	a.bytes += uint64(bytes)
	if whole {
		a.messages++
	}
	r.durs[name] = append(r.durs[name], dur)
}

// startMeasuring drops the aggregates gathered during set-up and
// warm-up, keeping the set-up-only Join timings.
func (r *recorder) startMeasuring() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg = [numLayers]layerAgg{}
	for name := range r.durs {
		if name != spanJoin {
			delete(r.durs, name)
		}
	}
}

func (r *recorder) aggregates() [numLayers]layerAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg
}

// tracedConn wraps a node's substrate connection, timing each send
// and counting frames, bytes and whole messages.
type tracedConn struct {
	transport.Conn
	rec   *recorder
	layer layerID
	// parent is the generator's open span while it calls into the
	// node that owns this connection.
	parent atomic.Pointer[openSpan]

	mu     sync.Mutex
	unwrap *message.Unwrapper
}

func (r *recorder) wrap(c transport.Conn, layer layerID) transport.Conn {
	return &tracedConn{Conn: c, rec: r, layer: layer, unwrap: message.NewUnwrapper()}
}

func (c *tracedConn) Multicast(frame []byte) error {
	start := c.rec.now()
	err := c.Conn.Multicast(frame)
	c.record(start, "*", frame, spanBSSend)
	return err
}

func (c *tracedConn) Unicast(to string, frame []byte) error {
	start := c.rec.now()
	err := c.Conn.Unicast(to, frame)
	// The base station's unicasts all go to wireless clients.
	c.record(start, to, frame, spanRFSend)
	return err
}

func (c *tracedConn) record(start int64, peer string, frame []byte, bsName string) {
	end := c.rec.now()
	name := spanClientSend
	if c.layer == layerBaseStation {
		name = bsName
	}
	// Reassemble the sent datagrams to count whole messages and, on the
	// base station, to attribute each send to the item that caused it.
	c.mu.Lock()
	whole, err := c.unwrap.Unwrap(peer, frame)
	c.mu.Unlock()
	itemID := int32(-1)
	isMsg := err == nil && whole != nil
	if isMsg && c.layer == layerBaseStation {
		if m, err := message.Decode(whole); err == nil {
			itemID = int32(itemOf(m))
		}
	}
	c.rec.send(c.layer, name, start, end, c.parent.Load(), itemID, len(frame), isMsg)
}

// itemOf recovers the benchmark item id a message carries, or -1: chat
// lines start "#<id>", strokes carry it as their id, image shares are
// named "img-<id>".
func itemOf(m *message.Message) int {
	app, _ := m.Attr(message.AttrApp)
	switch app.Str() {
	case apps.AppChat:
		if len(m.Body) > 5 && m.Body[4] == '#' {
			return leadingInt(string(m.Body[5:]))
		}
	case apps.AppWhiteboard:
		if len(m.Body) >= 7 {
			return int(binary.BigEndian.Uint32(m.Body[3:7]))
		}
	case apps.AppImageViewer, apps.AppMedia:
		if obj, ok := m.Attr(message.AttrObject); ok {
			if s, ok := strings.CutPrefix(obj.Str(), "img-"); ok {
				return leadingInt(s)
			}
		}
	}
	return -1
}

func leadingInt(s string) int {
	end := 0
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(s[:end])
	if err != nil {
		return -1
	}
	return n
}

// call runs fn inside a span when tracing (r != nil); the span
// becomes the parent of every send on via's connection meanwhile.
func (r *recorder) call(layer layerID, name string, itemID int, via transport.Conn, fn func() error) error {
	if r == nil {
		return fn()
	}
	sp := r.begin(layer, name, itemID)
	tc, _ := via.(*tracedConn)
	if tc != nil {
		tc.parent.Store(sp)
	}
	err := fn()
	if tc != nil {
		tc.parent.Store(nil)
	}
	r.end(sp)
	return err
}

// quantileUS returns the q-quantile of a span's durations in µs.
func (r *recorder) quantileUS(name string, q float64) float64 {
	r.mu.Lock()
	d := append([]int64(nil), r.durs[name]...)
	r.mu.Unlock()
	return quantileNS(d, q) / 1e3
}

// writeSpans writes the stored spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTable prints each layer's span count, total and self time.
func (r *recorder) writeTable(w io.Writer, items int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(w, "%-12s %9s %11s %11s %14s %9s %11s\n", "layer", "spans", "total_ms", "self_ms", "self_us/item", "frames", "bytes")
	order := make([]int, numLayers)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.agg[order[a]].selfNS > r.agg[order[b]].selfNS })
	for _, l := range order {
		a := r.agg[l]
		fmt.Fprintf(w, "%-12s %9d %11.3f %11.3f %14.3f %9d %11d\n", layerNames[l], a.spans,
			float64(a.totalNS)/1e6, float64(a.selfNS)/1e6, float64(a.selfNS)/1e3/float64(items), a.frames, a.bytes)
	}
}
