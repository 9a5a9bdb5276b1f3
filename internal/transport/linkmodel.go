package transport

import (
	"math/rand"
	"time"
)

// linkPlan is the outcome of applying a Link's model to one frame:
// whether it is dropped, how many copies arrive (duplication), the
// latency until delivery, and the link's updated serialization
// horizon.
type linkPlan struct {
	drop   bool
	copies int
	delay  time.Duration // propagation + jitter + serialization queueing
	busy   time.Time     // instant the link frees up (bandwidth model)
}

// planLink draws one frame's fate from the link model.  busy is the
// link's current serialization horizon and now the clock reading both
// are measured on.  The rng draws (loss, duplication, jitter) must come
// from a seeded source owned by the caller for reproducibility.
func planLink(l Link, frameLen int, rng *rand.Rand, busy, now time.Time) linkPlan {
	if l.Down || (l.Loss > 0 && rng.Float64() < l.Loss) {
		return linkPlan{drop: true, busy: busy}
	}
	p := linkPlan{copies: 1, busy: busy, delay: l.Delay}
	if l.Duplicate > 0 && rng.Float64() < l.Duplicate {
		p.copies = 2
	}
	if l.Jitter > 0 {
		p.delay += time.Duration(rng.Int63n(int64(l.Jitter) + 1))
	}
	if l.BandwidthBps > 0 {
		// Serialization occupies the link: back-to-back sends queue
		// behind the instant the link frees up.
		if p.busy.Before(now) {
			p.busy = now
		}
		p.busy = p.busy.Add(time.Duration(float64(frameLen*8) / l.BandwidthBps * float64(time.Second)))
		p.delay += p.busy.Sub(now)
	}
	return p
}
