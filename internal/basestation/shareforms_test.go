package basestation

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
)

// countingTransformer counts the Transform calls of the module it wraps.
type countingTransformer struct {
	media.Transformer
	calls atomic.Int64
}

func (c *countingTransformer) Transform(in *media.Object) (*media.Object, error) {
	c.calls.Add(1)
	return c.Transformer.Transform(in)
}

// countingRegistry returns a registry whose image→sketch and
// image→text modules count their transforms.
func countingRegistry() (reg *media.Registry, sketch, text *countingTransformer) {
	sketch = &countingTransformer{Transformer: media.ImageToSketch{}}
	text = &countingTransformer{Transformer: media.ImageToText{}}
	reg = media.NewRegistry()
	reg.Register(sketch)
	reg.Register(text)
	return reg, sketch, text
}

// joinWithPreference joins a wireless client that declares a modality
// preference ("" for none).
func (r *rig) joinWithPreference(t *testing.T, id string, distance float64, modality string) *core.Client {
	t.Helper()
	conn, err := r.radioNet.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewClient(conn, core.Config{})
	t.Cleanup(func() { c.Close() })
	p := profile.New(id)
	p.Interests.SetString("media", "any")
	if modality != "" {
		p.Preferences.SetString("modality", modality)
	}
	if _, err := r.bs.Join(p, distance, 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// wantTransmode is a direct Registry.Transmode of in, through a
// registry the base station does not use.
func wantTransmode(t *testing.T, in *media.Object, kind media.Kind) *media.Object {
	t.Helper()
	out, err := media.DefaultRegistry().Transmode(in, kind)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkDelivered waits for exactly one media delivery at c and checks
// it equals want.
func checkDelivered(t *testing.T, name string, c *core.Client, want *media.Object) {
	t.Helper()
	waitFor(t, name+" delivery", func() bool { return c.Inbox().Len() > 0 })
	if n := c.Inbox().Len(); n != 1 {
		t.Errorf("%s: %d deliveries, want 1", name, n)
	}
	got, _ := c.Inbox().Latest()
	if !reflect.DeepEqual(got.Object, want) {
		t.Errorf("%s: delivered %v, want %v", name, got.Object, want)
	}
}

// TestCollectedImageTransformsOncePerTier: a collected wired-side image
// served to several sketch- and text-tier clients through a concurrent
// pool is transformed once per tier, and every client still decodes
// exactly what a direct transform of the re-encoded share yields.
func TestCollectedImageTransformsOncePerTier(t *testing.T) {
	reg, sketch, text := countingRegistry()
	r := newRig(t, Config{
		Registry:      reg,
		FanOutWorkers: 4,
		// Every client lands on the sketch tier; text-mode clients
		// are clamped down by their declared preference.
		Thresholds: radio.Thresholds{TextDB: -1000, SketchDB: -999, ImageDB: 1000},
	})
	clients := map[media.Kind][]*core.Client{}
	for i := 0; i < 3; i++ {
		clients[media.KindSketch] = append(clients[media.KindSketch],
			r.joinWithPreference(t, fmt.Sprintf("s%d", i), 30, ""))
		clients[media.KindText] = append(clients[media.KindText],
			r.joinWithPreference(t, fmt.Sprintf("t%d", i), 30, string(media.KindText)))
	}

	obj := testImageObject(t)
	if err := r.wired.ShareImage("once-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	// The base station re-encodes the (lossless) collected stream.
	res, err := media.DecodeImage(obj)
	if err != nil {
		t.Fatal(err)
	}
	in, err := media.EncodeImage(res.Image, obj.Description)
	if err != nil {
		t.Fatal(err)
	}
	for kind, cs := range clients {
		want := wantTransmode(t, in, kind)
		for i, c := range cs {
			checkDelivered(t, fmt.Sprintf("%s client %d", kind, i), c, want)
		}
	}
	if n := sketch.calls.Load(); n != 1 {
		t.Errorf("sketch transforms = %d, want 1", n)
	}
	if n := text.calls.Load(); n != 1 {
		t.Errorf("text transforms = %d, want 1", n)
	}
}

// failingTransformer stands in for a module whose transform fails.
type failingTransformer struct{ media.Transformer }

func (failingTransformer) Transform(*media.Object) (*media.Object, error) {
	return nil, errors.New("transcoder offline")
}

// TestCollectedImageTransformFailureRecordsDrop: a client whose tier
// transform fails leaves a drop event naming it and the reason, and
// the other clients are still served.
func TestCollectedImageTransformFailureRecordsDrop(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	reg := media.NewRegistry()
	reg.Register(media.ImageToSketch{})
	reg.Register(failingTransformer{media.ImageToText{}})
	r := newRig(t, Config{
		Registry:      reg,
		FanOutWorkers: 4,
		Thresholds:    radio.Thresholds{TextDB: -1000, SketchDB: -999, ImageDB: 1000},
	})
	sketchClient := r.joinWithPreference(t, "sketcher", 30, "")
	r.joinWithPreference(t, "texter", 30, string(media.KindText))

	if err := r.wired.ShareImage("fail-1", testImageObject(t), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drop event for the text client", func() bool {
		for _, ev := range obs.Events(0) {
			if ev.Kind == obs.EventDrop && strings.Contains(ev.Detail, "fail-1 to texter") &&
				strings.Contains(ev.Detail, "transcoder offline") {
				return true
			}
		}
		return false
	})
	waitFor(t, "sketch client still served", func() bool { return sketchClient.Inbox().Len() == 1 })
}

// TestUplinkShareTransformsOncePerTier: a wireless share's wired
// forward and its per-peer loop share one rendition per tier.
func TestUplinkShareTransformsOncePerTier(t *testing.T) {
	reg, sketch, text := countingRegistry()
	r := newRig(t, Config{
		Registry:      reg,
		FanOutWorkers: 4,
		// Near clients (10 m) sit near -3 dB: sketch tier.  Far
		// clients (100 m) sit near -35 dB: text tier.
		Thresholds: radio.Thresholds{TextDB: -50, SketchDB: -10, ImageDB: 100},
	})
	r.joinWithPreference(t, "sender", 10, "")
	clients := map[media.Kind][]*core.Client{}
	for i := 0; i < 2; i++ {
		clients[media.KindSketch] = append(clients[media.KindSketch],
			r.joinWithPreference(t, fmt.Sprintf("near%d", i), 10, ""))
	}
	for i := 0; i < 3; i++ {
		clients[media.KindText] = append(clients[media.KindText],
			r.joinWithPreference(t, fmt.Sprintf("far%d", i), 100, ""))
	}
	wantTier := map[string]radio.Tier{"sender": radio.TierSketch,
		"near0": radio.TierSketch, "near1": radio.TierSketch,
		"far0": radio.TierText, "far1": radio.TierText, "far2": radio.TierText}
	for id, want := range wantTier {
		if a, err := r.bs.Assess(id); err != nil || a.Tier != want {
			t.Fatalf("%s: tier %s (%.1f dB, err %v), want %s", id, a.Tier, a.SIRdB, err, want)
		}
	}

	obj := testImageObject(t)
	if err := r.bs.UplinkShare("sender", "once-2", "", obj); err != nil {
		t.Fatal(err)
	}
	sk := wantTransmode(t, obj, media.KindSketch)
	checkDelivered(t, "wired client", r.wired, sk)
	for kind, cs := range clients {
		want := wantTransmode(t, obj, kind)
		for i, c := range cs {
			checkDelivered(t, fmt.Sprintf("%s client %d", kind, i), c, want)
		}
	}
	if n := sketch.calls.Load(); n != 1 {
		t.Errorf("sketch transforms = %d, want 1", n)
	}
	if n := text.calls.Load(); n != 1 {
		t.Errorf("text transforms = %d, want 1", n)
	}
}

// TestLeaveForgetsRFReassembly: a fragment a client sent before it left
// cannot complete a message with fragments it sends after rejoining.
func TestLeaveForgetsRFReassembly(t *testing.T) {
	r := newRig(t, Config{})
	conn, err := r.radioNet.Attach("w1")
	if err != nil {
		t.Fatal(err)
	}
	join := func() {
		t.Helper()
		if _, err := r.bs.Join(profile.New("w1"), 20, 1); err != nil {
			t.Fatal(err)
		}
	}
	var seq uint32
	chat := func(text string) []byte {
		seq++
		frame, err := message.Encode(&message.Message{
			Kind:   message.KindEvent,
			Sender: "w1",
			Seq:    seq,
			Attrs:  selector.Attributes{message.AttrApp: selector.S(apps.AppChat)},
			Body:   apps.EncodeSay(text),
		})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	send := func(datagram []byte) {
		t.Helper()
		if err := conn.Unicast("bs", datagram); err != nil {
			t.Fatal(err)
		}
	}
	// The base station handles one sender's frames in order, so a
	// relayed barrier proves everything sent before it was ingested.
	barrier := func(text string, lines int) {
		t.Helper()
		send(message.WrapWhole(chat(text)))
		waitFor(t, text, func() bool { return r.wired.Chat().Len() >= lines })
	}

	join()
	env := message.Enveloper{MTU: 24}
	stale, err := env.Wrap(chat("stale line sent before leaving"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) < 2 {
		t.Fatalf("%d datagrams, want a fragmented message", len(stale))
	}
	send(stale[0])
	barrier("before leave", 1)

	if err := r.bs.Leave("w1"); err != nil {
		t.Fatal(err)
	}
	join()
	for _, d := range stale[1:] {
		send(d)
	}
	barrier("after rejoin", 2)

	for _, l := range r.wired.Chat().Lines() {
		if l.Text == "stale line sent before leaving" {
			t.Fatal("a fragment sent before the leave completed a message after the rejoin")
		}
	}
}
