package apps

import (
	"runtime"
	"testing"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/wavelet"
)

func TestImageViewerColorShare(t *testing.T) {
	im := wavelet.ColorScene(48, 48, 3)
	obj, err := media.EncodeColorImage(im, "color scene")
	if err != nil {
		t.Fatal(err)
	}
	meta, packets, err := ShareImage("c-1", obj, 16)
	if err != nil {
		t.Fatal(err)
	}

	v := NewImageViewer()
	v.Announce(meta)
	for i, p := range packets {
		if err := v.AddPacket("c-1", i, p); err != nil {
			t.Fatal(err)
		}
	}

	// Full delivery: color render is lossless.
	cres, err := v.RenderColor("c-1")
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Lossless || !cres.Image.Equal(im) {
		t.Error("full color share should render losslessly")
	}
	// The grayscale Render view is the luma plane.
	gres, err := v.Render("c-1")
	if err != nil {
		t.Fatal(err)
	}
	if gres.Image.W != 48 || !gres.Lossless {
		t.Errorf("grayscale view: %dx%d lossless=%v", gres.Image.W, gres.Image.H, gres.Lossless)
	}

	// Constrained budget: partial planes, grayscale-or-worse but valid.
	v2 := NewImageViewer()
	v2.SetBudget(4)
	v2.Announce(meta)
	for i, p := range packets {
		v2.AddPacket("c-1", i, p)
	}
	cres, err = v2.RenderColor("c-1")
	if err != nil {
		t.Fatal(err)
	}
	if cres.Lossless {
		t.Error("4/16 packets cannot be lossless")
	}
	if cres.Image.W != 48 {
		t.Error("partial color dimensions")
	}

	// Zero budget: blank canvas.
	v3 := NewImageViewer()
	v3.SetBudget(0)
	v3.Announce(meta)
	for i, p := range packets {
		v3.AddPacket("c-1", i, p)
	}
	cres, err = v3.RenderColor("c-1")
	if err != nil {
		t.Fatal(err)
	}
	if cres.PlanesPresent != 0 || cres.Image.W != 48 {
		t.Errorf("zero-budget color render: %+v", cres)
	}

	if _, err := v.RenderColor("ghost"); err == nil {
		t.Error("unknown object accepted")
	}
}

// IsColor reads the stream magic from the accepted packets without
// assembling the stream: a color share says yes once its first packet
// is accepted, a grayscale share never does.
func TestImageViewerIsColor(t *testing.T) {
	colorObj, err := media.EncodeColorImage(wavelet.ColorScene(48, 48, 3), "color")
	if err != nil {
		t.Fatal(err)
	}
	grayObj, err := media.EncodeImage(wavelet.Medical(48, 48, 1), "gray")
	if err != nil {
		t.Fatal(err)
	}
	v := NewImageViewer()
	if _, err := v.IsColor("nope"); err == nil {
		t.Error("IsColor of an unknown share should fail")
	}
	for _, c := range []struct {
		object string
		obj    *media.Object
		want   bool
	}{{"c", colorObj, true}, {"g", grayObj, false}} {
		meta, packets, err := ShareImage(c.object, c.obj, 16)
		if err != nil {
			t.Fatal(err)
		}
		v.Announce(meta)
		if got, err := v.IsColor(c.object); err != nil || got {
			t.Errorf("%s with nothing accepted: IsColor = %v, %v", c.object, got, err)
		}
		for i, p := range packets {
			if err := v.AddPacket(c.object, i, p); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := v.IsColor(c.object); err != nil || got != c.want {
			t.Errorf("%s: IsColor = %v, %v; want %v", c.object, got, err, c.want)
		}
	}
}

// A sender-declared StreamBytes far beyond what arrived must not size
// the assembled stream: rendering allocates for the arrived bytes.
func TestImageViewerRenderIgnoresDeclaredStreamBytes(t *testing.T) {
	obj, err := media.EncodeImage(wavelet.Medical(32, 32, 1), "gray")
	if err != nil {
		t.Fatal(err)
	}
	meta, packets, err := ShareImage("big", obj, 4)
	if err != nil {
		t.Fatal(err)
	}
	meta.StreamBytes = 1 << 30
	v := NewImageViewer()
	v.Announce(meta)
	for i, p := range packets {
		if err := v.AddPacket("big", i, p); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := v.Render("big")
	runtime.ReadMemStats(&after)
	if err != nil || !res.Lossless {
		t.Fatalf("render: %v lossless=%v", err, res != nil && res.Lossless)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("render allocated %d bytes for a %d-byte stream", grew, len(obj.Data))
	}
}
