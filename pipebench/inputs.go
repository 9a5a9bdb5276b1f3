package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/wavelet"
)

// spec is one workload: the population, the open-loop rate and the
// knobs that decide which layers do work.
type spec struct {
	name          string
	wired         int
	wireless      int
	rate          float64 // items per second, open loop
	images        bool    // every item is a progressive-image share
	wirelessShare float64 // fraction of items published by wireless clients
	loss          float64 // wired client-to-client link loss
	repair        bool    // coordinator archive + gap repair on wired clients
	hostRamp      bool    // wired clients sample a hostagent CPU ramp and adapt
	mtu           int     // core client MTU (0 = package default)
	imageSize     int     // square image side in pixels
}

// Rates are sized for a 2-vCPU machine: each keeps the process well
// below saturation so latency reflects the pipeline, not a backlog.
// LAYERS.md gives the reason for each workload.
var specs = []spec{
	// The per-message path: message, selector/profile, transport
	// fan-out copies, the BS relay; media and repair do no work.
	{name: "interactive", wired: 8, wireless: 16, rate: 1000, wirelessShare: 1.0 / 8},
	// The media path: encode and tier transforms, fragmentation, rtp,
	// BS collect/re-encode, inference under a hostagent ramp.
	{name: "imaging", wired: 4, wireless: 12, rate: 100, images: true, wirelessShare: 1.0 / 8,
		hostRamp: true, mtu: 192, imageSize: 64},
	// Gap repair against an archiving coordinator.  At 20% loss most
	// wired deliveries wait for a repair, so the median delivery sits
	// inside the repaired population rather than on its edge.
	{name: "lossy-repair", wired: 8, wireless: 2, rate: 1000, loss: 0.20, repair: true},
}

// heldOutSeed is reserved for confirming a later performance claim on
// inputs nobody tuned against; it is recorded in every result.
const heldOutSeed = 7919

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

type itemKind uint8

const (
	kindChat itemKind = iota
	kindStroke
	kindImage
)

// teams partition the population; a selector addresses one team or,
// when empty, everyone.
var teams = []string{"red", "blue"}

// item is one published chat line, stroke or image share.
type item struct {
	id     int
	due    time.Duration // offset from the phase start
	sender int           // client index: wired first, then wireless
	kind   itemKind
	team   int    // addressed team, -1 = everyone
	sel    string // the selector addressing team
	text   string // chat line (carries the item id)
	stroke apps.Stroke
	image  int    // index into inputs.images
	object string // image share name
	desc   string // image description; carries the id through tier transforms
}

// ramp is one wired client's CPU-load schedule.
type ramp struct {
	from, to float64
	steps    int
}

// inputs is everything a run feeds the program, generated from the
// seed before any clock starts.
type inputs struct {
	spec       spec
	seed       int64
	teamOf     []int     // per client
	distances  []float64 // per wireless client, metres
	thresholds radio.Thresholds
	ramps      []ramp // per wired client (hostRamp workloads)
	images     []*wavelet.Image
	warm       []item
	measured   []item
}

var words = []string{
	"status", "confirmed", "sector", "update", "please", "review", "the",
	"north", "gate", "is", "clear", "copy", "that", "image", "incoming",
	"hold", "position", "bid", "accepted", "closing",
}

// warmSeconds of of load runs before measuring, so caches
// and lazily built state are in place.
const warmSeconds = 0.5

func generate(s spec, seed int64, seconds int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	n := s.wired + s.wireless
	in := &inputs{spec: s, seed: seed, teamOf: make([]int, 0, n)}
	// Teams alternate within each segment, so every seed fans an
	// addressed item out to the same receivers.
	for i := 0; i < s.wired; i++ {
		in.teamOf = append(in.teamOf, i%len(teams))
	}
	for i := 0; i < s.wireless; i++ {
		in.teamOf = append(in.teamOf, i%len(teams))
	}
	// Distances are drawn per seed but handed out nearest first, so a
	// client's tier (and which dispatch shard serves each tier) is the
	// same for every seed.
	in.distances = make([]float64, s.wireless)
	for i := range in.distances {
		in.distances[i] = 20 + 60*rng.Float64()
	}
	sort.Float64s(in.distances)
	in.thresholds = spreadThresholds(in.distances)
	if s.hostRamp {
		in.ramps = make([]ramp, s.wired)
		for i := range in.ramps {
			in.ramps[i] = ramp{from: 10 + 30*rng.Float64(), to: 60 + 40*rng.Float64(), steps: 20 + rng.Intn(40)}
		}
	}
	if s.images {
		in.images = make([]*wavelet.Image, 16)
		for i := range in.images {
			in.images[i] = wavelet.Medical(s.imageSize, s.imageSize, rng.Int63())
		}
	}
	nWarm := int(s.rate * warmSeconds)
	nMeas := int(s.rate * float64(seconds))
	in.warm = makeItems(rng, s, 1, nWarm, len(in.images))
	in.measured = makeItems(rng, s, 1+nWarm, nMeas, len(in.images))
	return in
}

func makeItems(rng *rand.Rand, s spec, firstID, count, nImages int) []item {
	out := make([]item, count)
	for i := range out {
		it := &out[i]
		it.id = firstID + i
		it.due = time.Duration(float64(i) / s.rate * float64(time.Second))
		if s.wireless > 0 && rng.Float64() < s.wirelessShare {
			it.sender = s.wired + rng.Intn(s.wireless)
		} else {
			it.sender = rng.Intn(s.wired)
		}
		switch {
		case s.images:
			it.kind = kindImage
			it.team = -1
			it.image = rng.Intn(nImages)
		case rng.Intn(3) < 2:
			it.kind = kindChat
		default:
			it.kind = kindStroke
		}
		if !s.images {
			// Half the light items address one team, so selectors,
			// profile matching and the match index all do real work.
			it.team = -1
			if rng.Intn(2) == 0 {
				it.team = rng.Intn(len(teams))
			}
		}
		if it.team >= 0 {
			it.sel = `team == "` + teams[it.team] + `"`
		}
		switch it.kind {
		case kindImage:
			it.object = fmt.Sprintf("img-%d", it.id)
			it.desc = fmt.Sprintf("img#%d shared scan", it.id)
		case kindChat:
			w := 3 + rng.Intn(8)
			text := fmt.Sprintf("#%d", it.id)
			for j := 0; j < w; j++ {
				text += " " + words[rng.Intn(len(words))]
			}
			it.text = text
		case kindStroke:
			pts := make([]apps.Point, 2+rng.Intn(6))
			for j := range pts {
				pts[j] = apps.Point{X: int16(rng.Intn(640)), Y: int16(rng.Intn(480))}
			}
			it.stroke = apps.Stroke{ID: uint32(it.id), Color: uint8(rng.Intn(8)), Width: uint8(1 + rng.Intn(4)), Points: pts}
		}
	}
	return out
}

// spreadThresholds places the tier thresholds between the thirds of
// the population's SIRs, so wireless clients land on the text, sketch
// and image tiers (with fewer than three clients the nearest gets the
// image tier, the rest text).  The SIRs come from a separate channel
// with the same geometry the base station will see once every client
// has joined.
func spreadThresholds(distances []float64) radio.Thresholds {
	if len(distances) == 0 {
		return radio.DefaultThresholds()
	}
	ch := radio.NewChannel(radio.Params{})
	for i, d := range distances {
		if err := ch.Join(wirelessID(i), d, 1); err != nil {
			panic(err) // ids are unique by construction
		}
	}
	sirs := make([]float64, 0, len(distances))
	for _, db := range ch.AllSIRdB() {
		sirs = append(sirs, db)
	}
	sort.Float64s(sirs)
	// The channel sums interference in map order, so SIRs differ in
	// their last bits from run to run; rounding keeps the inputs
	// identical for a seed (a cut sits far from any client's SIR).
	round := func(db float64) float64 { return math.Round(db*1000) / 1000 }
	n := len(sirs)
	cut := func(k int) float64 {
		k = max(1, min(k, n-1))
		if n == 1 {
			return round(sirs[0] - 1)
		}
		return round((sirs[k-1] + sirs[k]) / 2)
	}
	return radio.Thresholds{TextDB: round(sirs[0] - 3), SketchDB: cut(n / 3), ImageDB: cut(2 * n / 3)}
}

func wiredID(i int) string    { return fmt.Sprintf("wired-%d", i) }
func wirelessID(i int) string { return fmt.Sprintf("wireless-%d", i) }
